package krcore_test

// One benchmark per reproduced table/figure (deliverable d). Each
// iteration regenerates the corresponding experiment through the
// internal/expr harness with a short per-cell budget, so
//
//	go test -bench=. -benchmem
//
// replays the paper's whole evaluation. The rendered tables land in the
// benchmark log (-v) and in cmd/benchrunner, which uses the same code
// with the full budget.

import (
	"testing"
	"time"

	"krcore/internal/expr"
)

// benchBudget keeps a full -bench=. run in the minutes range; use
// cmd/benchrunner for the full-budget tables.
const benchBudget = 1 * time.Second

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e := expr.Find(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		r := expr.NewRunner(benchBudget)
		rep := e.Run(r)
		if i == 0 {
			b.Log("\n" + rep.String())
			inf := 0
			cells := 0
			for _, s := range rep.Series {
				for _, c := range s.Cells {
					cells++
					if c == "INF" {
						inf++
					}
				}
			}
			b.ReportMetric(float64(cells), "cells")
			b.ReportMetric(float64(inf), "INF-cells")
		}
	}
}

func BenchmarkTable3Stats(b *testing.B)       { runExperiment(b, "table3") }
func BenchmarkFig5CaseStudyDBLP(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFig6CaseStudyGeo(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFig7aStats(b *testing.B)        { runExperiment(b, "fig7a") }
func BenchmarkFig7bStats(b *testing.B)        { runExperiment(b, "fig7b") }
func BenchmarkFig8aClique(b *testing.B)       { runExperiment(b, "fig8a") }
func BenchmarkFig8bClique(b *testing.B)       { runExperiment(b, "fig8b") }
func BenchmarkFig9aPruning(b *testing.B)      { runExperiment(b, "fig9a") }
func BenchmarkFig9bPruning(b *testing.B)      { runExperiment(b, "fig9b") }
func BenchmarkFig10aBounds(b *testing.B)      { runExperiment(b, "fig10a") }
func BenchmarkFig10bBounds(b *testing.B)      { runExperiment(b, "fig10b") }
func BenchmarkFig11aLambda(b *testing.B)      { runExperiment(b, "fig11a") }
func BenchmarkFig11bBranch(b *testing.B)      { runExperiment(b, "fig11b") }
func BenchmarkFig11cMaxOrders(b *testing.B)   { runExperiment(b, "fig11c") }
func BenchmarkFig11dEnumOrders(b *testing.B)  { runExperiment(b, "fig11d") }
func BenchmarkFig11eEnumOrders(b *testing.B)  { runExperiment(b, "fig11e") }
func BenchmarkFig11fCheckOrders(b *testing.B) { runExperiment(b, "fig11f") }
func BenchmarkFig12aDatasets(b *testing.B)    { runExperiment(b, "fig12a") }
func BenchmarkFig12bDatasets(b *testing.B)    { runExperiment(b, "fig12b") }
func BenchmarkFig13aEnumK(b *testing.B)       { runExperiment(b, "fig13a") }
func BenchmarkFig13bEnumR(b *testing.B)       { runExperiment(b, "fig13b") }
func BenchmarkFig14aMaxK(b *testing.B)        { runExperiment(b, "fig14a") }
func BenchmarkFig14bMaxR(b *testing.B)        { runExperiment(b, "fig14b") }

// Beyond the paper: parallel AdvMax scaling across components.
func BenchmarkParallelMax(b *testing.B) { runExperiment(b, "parmax") }
