// Command benchrunner regenerates the paper's tables and figures on the
// synthetic stand-in datasets and prints them as text tables or JSON.
//
// Usage:
//
//	benchrunner                       # run everything (several minutes)
//	benchrunner -fig fig9a            # run one experiment
//	benchrunner -fig fig9a,parmax     # run several experiments
//	benchrunner -budget 10s           # change the per-cell INF budget
//	benchrunner -json                 # emit a JSON array of reports
//	benchrunner -list                 # list experiment ids
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"krcore/internal/expr"
)

func main() {
	fig := flag.String("fig", "", "comma-separated experiment ids to run (empty = all)")
	budget := flag.Duration("budget", expr.DefaultBudget, "per-cell time budget (exceeded = INF)")
	asJSON := flag.Bool("json", false, "write the reports as one JSON array on stdout")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range expr.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Brief)
		}
		return
	}

	var selected []expr.Experiment
	if *fig != "" {
		for _, id := range strings.Split(*fig, ",") {
			id = strings.TrimSpace(id)
			e := expr.Find(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(1)
			}
			selected = append(selected, *e)
		}
	} else {
		selected = expr.Experiments
	}

	runner := expr.NewRunner(*budget)
	var reports []*expr.Report
	for _, e := range selected {
		start := time.Now()
		rep := e.Run(runner)
		if *asJSON {
			reports = append(reports, rep)
		} else {
			rep.Render(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
	}
}
