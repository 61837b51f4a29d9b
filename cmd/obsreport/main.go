// Command obsreport renders internal/obs snapshots — the JSON served by
// a live process's /debug/obs endpoint — as human-readable reports.
//
// One snapshot gives the full instrument dump plus a per-tick phase
// breakdown (the driver's build/query/update spans, and the epoch
// lifecycle spans with the bulk/replay apply-path split). Two snapshots
// are diffed: counter and
// histogram deltas describe exactly the interval between the captures,
// which is how a steady-state rate is read off a long-running service.
//
// Examples:
//
//	curl -s http://127.0.0.1:7171/debug/obs > a.json
//	obsreport a.json                 # one capture, full report
//	sleep 10; curl -s http://127.0.0.1:7171/debug/obs > b.json
//	obsreport -diff a.json b.json    # rates over the 10s interval
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("obsreport", flag.ContinueOnError)
	diff := fs.Bool("diff", false, "diff two snapshots: report the interval between them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff wants exactly two snapshot files, got %d", fs.NArg())
		}
		a, err := load(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := load(fs.Arg(1))
		if err != nil {
			return err
		}
		return writeDiff(w, a, b)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one snapshot file (or -diff a b), got %d", fs.NArg())
	}
	snap, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	return writeReport(w, snap)
}

// load reads one snapshot, "-" meaning stdin.
func load(path string) (*obs.Snapshot, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	snap := &obs.Snapshot{}
	if err := json.Unmarshal(raw, snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// writeReport renders one snapshot: every instrument, then the derived
// phase breakdown.
func writeReport(w io.Writer, snap *obs.Snapshot) error {
	fmt.Fprintf(w, "snapshot taken %s, process uptime %s\n",
		time.Unix(0, snap.TakenUnixNs).UTC().Format(time.RFC3339),
		time.Duration(snap.UptimeNs))

	if len(snap.Labels) > 0 {
		fmt.Fprintf(w, "\nlabels:\n")
		for _, name := range sortedKeys(snap.Labels) {
			fmt.Fprintf(w, "  %s = %s\n", name, snap.Labels[name])
		}
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintf(w, "\ncounters:\n")
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, name := range sortedKeys(snap.Counters) {
			fmt.Fprintf(tw, "  %s\t%d\n", name, snap.Counters[name])
		}
		tw.Flush()
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintf(w, "\ngauges:\n")
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, name := range sortedKeys(snap.Gauges) {
			fmt.Fprintf(tw, "  %s\t%d\n", name, snap.Gauges[name])
		}
		tw.Flush()
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintf(w, "\nhistograms:\n")
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "  name\tcount\tmean\tp50\tp90\tp99\tmax\n")
		for _, name := range sortedKeys(snap.Histograms) {
			hs := snap.Histograms[name]
			fmt.Fprintf(tw, "  %s\t%d\t%s\t%s\t%s\t%s\t%s\n", name, hs.Count,
				ns(hs.Mean), ns(hs.P50), ns(hs.P90), ns(hs.P99), ns(float64(hs.Max)))
		}
		tw.Flush()
	}
	writePhases(w, snap)
	return nil
}

// phaseSets is the known span layout of the pipeline, grouped by the
// subsystem that records it (see internal/obs/README.md for the full
// instrument inventory).
var phaseSets = []struct {
	title  string
	phases []string
}{
	{"tick phases (stop-the-world driver)", []string{
		"core.tick.build_ns", "core.tick.query_ns", "core.tick.update_ns",
	}},
	{"concurrent driver phases", []string{
		"core.concurrent.tick_ns", "core.concurrent.apply_ns", "core.concurrent.query_ns",
	}},
	{"epoch lifecycle phases", []string{
		"epoch.apply_ns", "epoch.validate_ns", "epoch.publish_ns", "epoch.quiesce_ns",
	}},
}

// writePhases derives the per-phase breakdown from the span histograms
// present in the snapshot.
func writePhases(w io.Writer, snap *obs.Snapshot) {
	for i, set := range phaseSets {
		var have []string
		for _, p := range set.phases {
			if hs, ok := snap.Histograms[p]; ok && hs.Count > 0 {
				have = append(have, p)
			}
		}
		if len(have) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s:\n", set.title)
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		var total float64
		for _, p := range have {
			hs := snap.Histograms[p]
			fmt.Fprintf(tw, "  %s\tmean %s\tp99 %s\tx%d\n", p, ns(hs.Mean), ns(hs.P99), hs.Count)
			total += hs.Mean
		}
		fmt.Fprintf(tw, "  sum of phase means\t%s\t\t\n", ns(total))
		tw.Flush()
		// The tick loops say which order their last query phase probed in
		// (the sequential driver's measured choice, internal/core/README.md).
		if v, ok := snap.Gauges["core.tick.cell_ordered"]; ok && i == 0 {
			order := "querier order"
			if v != 0 {
				order = "cell order"
			}
			fmt.Fprintf(w, "  query phase probed in %s (core.tick.cell_ordered = %d)\n", order, v)
		}
	}
}

// writeDiff renders the interval between two snapshots of the same
// process: counter deltas, gauge movement, and histogram deltas.
func writeDiff(w io.Writer, a, b *obs.Snapshot) error {
	dt := time.Duration(b.UptimeNs - a.UptimeNs)
	if dt < 0 {
		return fmt.Errorf("snapshots are reversed (uptime went backwards by %s); pass the earlier capture first", -dt)
	}
	fmt.Fprintf(w, "interval: %s (uptime %s -> %s)\n",
		dt, time.Duration(a.UptimeNs), time.Duration(b.UptimeNs))

	names := map[string]bool{}
	for name := range a.Counters {
		names[name] = true
	}
	for name := range b.Counters {
		names[name] = true
	}
	if len(names) > 0 {
		fmt.Fprintf(w, "\ncounters (delta over interval):\n")
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, name := range sortedKeys(names) {
			d := b.Counters[name] - a.Counters[name]
			rate := ""
			if dt > 0 {
				rate = fmt.Sprintf("%.1f/s", float64(d)/dt.Seconds())
			}
			fmt.Fprintf(tw, "  %s\t%+d\t%s\n", name, d, rate)
		}
		tw.Flush()
	}

	gnames := map[string]bool{}
	for name := range a.Gauges {
		gnames[name] = true
	}
	for name := range b.Gauges {
		gnames[name] = true
	}
	if len(gnames) > 0 {
		fmt.Fprintf(w, "\ngauges (last value, movement):\n")
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, name := range sortedKeys(gnames) {
			fmt.Fprintf(tw, "  %s\t%d\t%+d\n", name, b.Gauges[name], b.Gauges[name]-a.Gauges[name])
		}
		tw.Flush()
	}

	hnames := map[string]bool{}
	for name := range a.Histograms {
		hnames[name] = true
	}
	for name := range b.Histograms {
		hnames[name] = true
	}
	if len(hnames) > 0 {
		fmt.Fprintf(w, "\nhistograms (interval count, interval mean):\n")
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, name := range sortedKeys(hnames) {
			ha, hb := a.Histograms[name], b.Histograms[name]
			dc := int64(hb.Count) - int64(ha.Count)
			mean := "-"
			if dc > 0 {
				mean = ns(float64(hb.Sum-ha.Sum) / float64(dc))
			}
			fmt.Fprintf(tw, "  %s\t%+d\t%s\n", name, dc, mean)
		}
		tw.Flush()
	}
	return nil
}

// ns renders a nanosecond quantity at a human scale. Non-duration
// histograms (fan-outs, batch sizes) read fine as raw small numbers
// because the unit suffix only kicks in past 1us.
func ns(v float64) string {
	switch {
	case v < 0:
		return "-"
	case v < 1e3:
		return fmt.Sprintf("%.0f", v)
	default:
		return time.Duration(v).Round(10 * time.Nanosecond).String()
	}
}

// sortedKeys returns the map's keys in sorted order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
