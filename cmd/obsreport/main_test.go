package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// snapFile captures the registry and writes the snapshot JSON where the
// CLI will read it — the same bytes /debug/obs serves.
func snapFile(t *testing.T, r *obs.Registry, name string) string {
	t.Helper()
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportSingleSnapshot(t *testing.T) {
	r := obs.New()
	var now int64
	r.SetClock(func() int64 { return now })

	r.SetLabel("tune.choice", "csr/cps=64")
	r.Counter("core.queries").Add(12345)
	r.Gauge("core.concurrent.violations").Set(0)
	r.Gauge("core.tick.cell_ordered").Set(1)
	for _, phase := range []string{"core.tick.build_ns", "core.tick.query_ns", "core.tick.update_ns"} {
		h := r.Histogram(phase)
		for i := 0; i < 8; i++ {
			now += 1_000_000 // 1ms per span under the fake clock
			h.Record(1_000_000)
		}
	}

	var out strings.Builder
	if err := run([]string{snapFile(t, r, "a.json")}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"tune.choice = csr/cps=64",
		"core.queries",
		"12345",
		"tick phases (stop-the-world driver)",
		"core.tick.build_ns",
		"x8",
		"query phase probed in cell order (core.tick.cell_ordered = 1)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestReportDiff(t *testing.T) {
	r := obs.New()
	var now int64
	r.SetClock(func() int64 { return now })

	c := r.Counter("epoch.epochs_published")
	h := r.Histogram("epoch.apply_ns")
	c.Add(10)
	h.Record(500)
	a := snapFile(t, r, "a.json")

	now += 2_000_000_000 // two seconds pass
	c.Add(40)
	h.Record(1500)
	h.Record(2500)
	b := snapFile(t, r, "b.json")

	var out strings.Builder
	if err := run([]string{"-diff", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"interval: 2s",
		"epoch.epochs_published",
		"+40",
		"20.0/s",
		"epoch.apply_ns",
		"+2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff missing %q:\n%s", want, got)
		}
	}

	// Reversed order is a usage error, not a nonsense report.
	if err := run([]string{"-diff", b, a}, &out); err == nil {
		t.Fatal("reversed diff should fail")
	}
}

func TestReportArgErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Fatal("no arguments should fail")
	}
	if err := run([]string{"-diff", "only-one.json"}, &out); err == nil {
		t.Fatal("-diff with one file should fail")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Fatal("missing file should fail")
	}
}
