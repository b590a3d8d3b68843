package splash

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/coherence"
	"repro/internal/mpsim"
)

// TestRunDeterministicAcrossGOMAXPROCS enforces the host-scheduling
// independence the mpsim package doc promises, directly on
// the real workloads: every SPLASH kernel must return an identical
// mpsim.Result for the same inputs across repeated runs and across
// GOMAXPROCS 1 vs N (previously this was only enforced indirectly via
// stdout diffs of the sweep engine).
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const procs = 4
	sz := Quick()
	// The whole Result, coordinator accounting included, must be
	// bit-exact.
	run := func(b Benchmark) mpsim.Result {
		return runPaper(b, procs, coherence.IntegratedVictim, sz)
	}
	for _, b := range All() {
		t.Run(b.Name, func(t *testing.T) {
			ref := run(b)

			repeat := run(b)
			if !reflect.DeepEqual(ref, repeat) {
				t.Fatalf("repeated run differs:\n  first  %+v\n  second %+v", ref, repeat)
			}

			old := runtime.GOMAXPROCS(1)
			serial := run(b)
			runtime.GOMAXPROCS(old)
			if !reflect.DeepEqual(ref, serial) {
				t.Fatalf("GOMAXPROCS=1 run differs from GOMAXPROCS=%d:\n  parallel %+v\n  serial   %+v",
					old, ref, serial)
			}
		})
	}
}
