package main

import "testing"

func TestRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{},                            // neither -experiment nor -vary
		{"-experiment", "fig9z"},      // unknown experiment
		{"-vary", "fanout"},           // unknown parameter
		{"-vary", "bs", "-from", "0"}, // non-positive start
		{"-vary", "bs", "-step", "0"}, // zero step
		{"-vary", "bs", "-from", "9", "-to", "3"},                     // inverted range
		{"-vary", "cps", "-layout", "hash"},                           // unknown layout
		{"-vary", "cps", "-scan", "spiral"},                           // unknown scan
		{"-experiment", "fig1a", "-scale", "0"},                       // invalid scale
		{"-objects", "sphere", "-vary", "cps"},                        // unknown object class
		{"-objects", "box", "-vary", "bs"},                            // box grid has no buckets
		{"-objects", "box", "-experiment", "fig1a"},                   // no predefined box sweeps
		{"-objects", "box", "-vary", "cps", "-from", "9", "-to", "3"}, // inverted range
		{"-objects", "box", "-vary", "cps", "-boxlayout", "quadtree"}, // unknown box layout
		{"-vary", "cps", "-layout", "csr-xy", "-scan", "spiral"},      // csr-xy parses, scan does not
		{"-vary", "cps", "-layout", "csr", "-scan", "full"},           // the CSR layouts answer by range scan only
		{"-vary", "cps", "-layout", "csr-xy", "-scan", "full"},        // and so does csr-xy
		{"-vary", "cps", "-layout", "auto"},                           // auto tunes cps itself
		{"-vary", "bs", "-layout", "auto"},                            // auto tunes bs itself
		{"-objects", "box", "-vary", "cps", "-boxlayout", "auto"},     // box auto tunes cps itself
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestBoxSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size data sweep")
	}
	err := run([]string{
		"-objects", "box", "-vary", "cps", "-from", "16", "-to", "48", "-step", "16",
		"-scale", "0.02", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoxQextSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size data sweep")
	}
	err := run([]string{
		"-objects", "box", "-boxlayout", "2l", "-vary", "qext",
		"-from", "200", "-to", "800", "-step", "300", "-cps", "64",
		"-scale", "0.02", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoxRTreeSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size data sweep")
	}
	err := run([]string{
		"-objects", "box", "-boxlayout", "rtree", "-vary", "qext",
		"-from", "200", "-to", "500", "-step", "300",
		"-scale", "0.02", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	// -vary cps sweeps the R-tree's fanout.
	err = run([]string{
		"-objects", "box", "-boxlayout", "rtree", "-vary", "cps",
		"-from", "8", "-to", "16", "-step", "8",
		"-scale", "0.02", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAutoQextSweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size data sweep")
	}
	err := run([]string{
		"-vary", "qext", "-from", "200", "-to", "500", "-step", "300",
		"-layout", "auto", "-scale", "0.02", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-objects", "box", "-boxlayout", "auto", "-vary", "qext",
		"-from", "200", "-to", "500", "-step", "300",
		"-scale", "0.02", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCustomSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size data sweep")
	}
	err := run([]string{
		"-vary", "cps", "-from", "8", "-to", "24", "-step", "8",
		"-layout", "inline", "-scan", "range", "-bs", "8",
		"-scale", "0.02", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPredefinedSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size data sweep")
	}
	if err := run([]string{"-experiment", "fig5a", "-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkedFullSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size data sweep")
	}
	err := run([]string{
		"-vary", "bs", "-from", "4", "-to", "8", "-step", "4",
		"-layout", "linked", "-scan", "full", "-cps", "13",
		"-scale", "0.02",
	})
	if err != nil {
		t.Fatal(err)
	}
}
