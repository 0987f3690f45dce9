// Package faultinject is a test-only fault switchboard for exercising the
// pipeline's failure paths deterministically. Production code calls
// Fire(site, key) at stage entry points; when disarmed (the default) that
// is a single atomic load and nothing more. Tests and CI arm it through
// the REPRO_FAULTS environment variable or Enable, with specs of the form
//
//	site:key=panic | error | slow[:DURATION] | hang[:DURATION]
//	             | flaky[:N] | kill[:CODE]
//
// where site is one of benchmark, explore, select, compile (the experiment
// harness stages), server (the iscd request path, /v1/customize and
// /v1/hdl alike), or replica (the iscd HTTP front door, keyed by the
// replica's -name), and key is a benchmark or replica name or * for any. This is how CI proves the fault-isolation
// contracts: a panicking sweep job becomes a PanicError row, an iscd panic
// becomes a 500 without killing the daemon, and an injected slow burns a
// request deadline to force a Truncated best-so-far response.
//
// The cluster-level modes model sick replicas for the isccluster
// robustness suite: hang answers nothing until far past any client
// timeout, flaky:N fails every Nth call deterministically (the flaky-5xx
// replica that stays in rotation but trips circuit breakers), and kill
// exits the whole process mid-request (arm it only in a process you own —
// the cluster-smoke CI job uses it to murder one replica of three).
//
// Main entry points: Fire (the instrumentation site), Enable / Reset
// (programmatic arming with restore), Fired (assertion counters),
// InjectedError, and EnvVar.
package faultinject
