package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestListTechniques(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallUniform(t *testing.T) {
	err := run([]string{
		"-technique", "grid-tuned",
		"-points", "500", "-ticks", "3", "-space", "2000",
		"-query-size", "100", "-speed", "20",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallGaussianPerTickParallel(t *testing.T) {
	err := run([]string{
		"-technique", "rtree", "-workload", "gaussian", "-hotspots", "3",
		"-points", "500", "-ticks", "3", "-space", "2000",
		"-per-tick", "-parallel",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunEveryTechniqueKey(t *testing.T) {
	for _, key := range []string{"brute", "binsearch", "rtree", "crtree", "kdtrie",
		"grid", "grid-restructured", "grid-querying", "grid-bs", "grid-tuned", "grid-xy", "grid-intrusive", "auto"} {
		err := run([]string{
			"-technique", key,
			"-points", "300", "-ticks", "2", "-space", "1500",
		})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
}

func TestRejectsUnknownTechnique(t *testing.T) {
	if err := run([]string{"-technique", "btree"}); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	if err := run([]string{"-workload", "zipf", "-points", "10", "-ticks", "2"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRejectsInvalidParameters(t *testing.T) {
	if err := run([]string{"-points", "0", "-ticks", "2"}); err == nil {
		t.Fatal("zero points accepted")
	}
	if err := run([]string{"-queriers", "1.5", "-points", "10", "-ticks", "2"}); err == nil {
		t.Fatal("querier fraction > 1 accepted")
	}
}

func TestReplayTraceFile(t *testing.T) {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 200
	cfg.Ticks = 2
	cfg.SpaceSize = 1000
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.sjtr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-technique", "grid-tuned", "-trace", path}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMissingTraceFails(t *testing.T) {
	if err := run([]string{"-trace", "/nonexistent/file.sjtr"}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestCompareMode(t *testing.T) {
	err := run([]string{
		"-compare", "grid,grid-tuned,brute",
		"-points", "400", "-ticks", "2", "-space", "1500",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompareModeRejectsUnknownKey(t *testing.T) {
	err := run([]string{
		"-compare", "grid,unobtainium",
		"-points", "100", "-ticks", "2",
	})
	if err == nil {
		t.Fatal("unknown key in -compare accepted")
	}
}

func TestBoxModeCompare(t *testing.T) {
	err := run([]string{
		"-objects", "box", "-compare", "all",
		"-points", "400", "-ticks", "2", "-space", "1500",
		"-min-side", "10", "-max-side", "120",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoxModeSingleTechniqueParallel(t *testing.T) {
	err := run([]string{
		"-objects", "box", "-technique", "boxgrid-csr",
		"-workload", "gaussian", "-hotspots", "3", "-extent", "gaussian",
		"-points", "400", "-ticks", "2", "-space", "1500",
		"-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoxModeAutoParallel(t *testing.T) {
	err := run([]string{
		"-objects", "box", "-technique", "boxauto",
		"-points", "400", "-ticks", "2", "-space", "1500",
		"-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoxModeRTreeParallel(t *testing.T) {
	err := run([]string{
		"-objects", "box", "-technique", "boxrtree",
		"-points", "400", "-ticks", "2", "-space", "1500",
		"-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoxModeList(t *testing.T) {
	if err := run([]string{"-objects", "box", "-list"}); err != nil {
		t.Fatal(err)
	}
}

// stdoutOf runs the CLI and returns what it printed.
func stdoutOf(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// The -technique default follows the object class: the paper's tuned
// grid for points, the two-layer box grid (the ladder's box winner) for
// boxes — never a silent rewrite of a key the user typed.
func TestTechniqueDefaultPerObjectClass(t *testing.T) {
	small := []string{"-points", "300", "-ticks", "2", "-space", "1500"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "technique : +cps tuned"},
		{[]string{"-objects", "box"}, "technique : boxgrid-2l("},
	} {
		out, err := stdoutOf(t, append(tc.args, small...)...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestBoxModeRejects(t *testing.T) {
	if err := run([]string{"-objects", "box", "-trace", "w.sjtr"}); err == nil {
		t.Fatal("box mode accepted a point trace")
	}
	if err := run([]string{"-objects", "box", "-extent", "zipf", "-points", "10", "-ticks", "2"}); err == nil {
		t.Fatal("unknown extent kind accepted")
	}
	if err := run([]string{"-objects", "sphere"}); err == nil {
		t.Fatal("unknown object class accepted")
	}
	if err := run([]string{"-objects", "box", "-technique", "rtree", "-points", "10", "-ticks", "2"}); err == nil {
		t.Fatal("point technique accepted in box mode")
	}
	// The point default is a point key like any other when typed.
	err := run([]string{"-objects", "box", "-technique", "grid-tuned", "-points", "10", "-ticks", "2"})
	if err == nil || !strings.Contains(err.Error(), `unknown box technique "grid-tuned" (have: `) {
		t.Fatalf("explicit -technique grid-tuned in box mode: got %v, want the unknown-box-technique error", err)
	}
}

func TestSimulationWorkloadKind(t *testing.T) {
	err := run([]string{
		"-technique", "kdtrie", "-workload", "simulation", "-hotspots", "4",
		"-points", "400", "-ticks", "3", "-space", "1500",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentShardedServiceMode runs both sharded techniques through
// -concurrent, one epoch around the router, and wants the clean-run
// report: no violation, and no degraded, retried or failed tick.
func TestConcurrentShardedServiceMode(t *testing.T) {
	for _, args := range [][]string{
		{"-technique", "shard-auto", "-shards", "2", "-points", "2000", "-ticks", "4", "-space", "3000", "-concurrent"},
		{"-objects", "box", "-technique", "boxshard-auto", "-shards", "2", "-points", "800", "-ticks", "3", "-space", "2000", "-concurrent"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

// TestConcurrentStaticTechnique runs a static family (its Update a
// no-op) through -concurrent at a small update share, where each batch
// is a few percent of the population, and wants the clean-run report:
// the epoch wrapper must catch the shadow up by a build, not by moves
// the index ignores.
func TestConcurrentStaticTechnique(t *testing.T) {
	args := []string{"-technique", "rtree", "-concurrent", "-points", "4000", "-ticks", "4", "-space", "6000", "-updaters", "0.02"}
	if err := run(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
}

// TestReportConcurrentRejectsDegradedRun pins that a clean service run
// is checked, not just printed: the CLI arms no fault injector, so each
// degraded tick, retry or failed tick is an error.
func TestReportConcurrentRejectsDegradedRun(t *testing.T) {
	if err := reportConcurrent(&core.ConcurrentResult{Ticks: 3}); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	for _, res := range []*core.ConcurrentResult{
		{Ticks: 3, Stats: core.EpochStats{Degraded: 1}},
		{Ticks: 3, Stats: core.EpochStats{Retries: 1}},
		{Ticks: 3, FailedTicks: 1},
	} {
		if err := reportConcurrent(res); err == nil {
			t.Errorf("%+v accepted", res)
		}
	}
}
