package main

import (
	"strings"
	"testing"
)

// TestPrintDeltas: only benchmarks present in both runs are compared, and
// only the ns/op, B/op and allocs/op metrics both runs report.
func TestPrintDeltas(t *testing.T) {
	prev := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 200, "B/op": 0, "allocs/op": 4, "events/s": 9}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 1}},
	}}
	cur := File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 150, "B/op": 64, "allocs/op": 4, "events/s": 12}},
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 1}},
	}}
	var out strings.Builder
	printDeltas(&out, prev, cur)
	want := "benchgate: delta: BenchmarkA ns/op 200 -> 150 (-25.0%), B/op 0 -> 64 (was 0), allocs/op 4 -> 4 (=)\n"
	if out.String() != want {
		t.Fatalf("deltas:\n got %q\nwant %q", out.String(), want)
	}
}
