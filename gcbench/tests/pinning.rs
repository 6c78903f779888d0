//! The benchmark pins its run configuration: the scheduler's
//! environment variables must not change what it measures. This file
//! holds one test, because it sets process-wide environment variables.

use gcbench::{pin_run_config, EXEC, PACING};
use tracegc_sim::{default_exec, default_pacing, Exec, Pacing};

#[test]
fn scheduler_environment_is_ignored() {
    std::env::set_var("TRACEGC_SCHED", "lockstep");
    std::env::set_var("TRACEGC_PAR_ENGINES", "4");
    pin_run_config();
    assert_eq!(default_pacing(), Pacing::FastForward);
    assert_eq!(default_exec(), Exec::Serial);
    assert_eq!((PACING, EXEC), (Pacing::FastForward, Exec::Serial));
}
