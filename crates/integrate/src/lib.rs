//! Numerical integration of streamlines (Eq. 1 of the paper).
//!
//! §2.1: "we use an integration scheme of Runge-Kutta type with adaptive
//! stepsize control as proposed by Dormand and Prince". [`dopri5::Dopri5`]
//! implements that scheme, and every run integrates with it.
//!
//! [`tracer`] advances a [`streamline::Streamline`] through whatever field
//! data is resident, stopping when the curve leaves the sampled region
//! (so the owning algorithm can hand it to another block/processor) or
//! terminates for good.

pub mod batch;
pub mod dopri5;
pub mod ode;
pub mod poincare;
pub mod streamline;
pub mod tracer;
pub mod unsteady;

pub use batch::{advect_batch, BatchAdvected, BatchSampler, StreamlineBatch};
pub use dopri5::Dopri5;
pub use ode::{FsalCache, StageFail, StepResult, Stepper, Tolerances};
pub use streamline::{SolverState, Streamline, StreamlineId, StreamlineStatus, Termination};
pub use tracer::{advect, AdvectOutcome, StepLimits};
