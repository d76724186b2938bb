package main

import (
	"fmt"
	"io"
	"math"
)

// printReport writes the human-readable report: the workload, every
// metric by name and unit, then the diagnostic rows.
func printReport(out io.Writer, w workload, seed uint64, res *result, metrics map[string]float64) {
	fmt.Fprintf(out, "workload %s  seed %d  (%s)\n", w.name, seed, w.why)
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(out, "  %-34s %14s %s\n", name, fmtValue(metrics[name]), unitOf(name))
	}
	fmt.Fprintln(out, "diagnostics:")
	for _, r := range res.rows {
		note := ""
		if r.note != "" {
			note = "  # " + r.note
		}
		fmt.Fprintf(out, "  %-34s %14s %s%s\n", r.name, fmtValue(r.value), r.unit, note)
	}
	fmt.Fprintf(out, "attempted %d  failed %d  violations %d\n", res.attempted, res.failed, len(res.violations))
}

func fmtValue(v float64) string {
	if math.IsNaN(v) {
		return "absent"
	}
	return fmt.Sprintf("%.4f", v)
}
