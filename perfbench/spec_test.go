package main

import (
	"bytes"
	"os"
	"testing"
)

// BENCHMARK.json is generated from spec.go; a hand edit of either
// without the other fails here. Regenerate with
// go run . -write-spec ../BENCHMARK.json
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: go run . -write-spec ../BENCHMARK.json")
	}
}

// Run-to-run spreads are judged with Python's
// statistics.quantiles(xs, n=4); the run reports its quartiles the same
// way.
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0.01, 1}, {0.99, 10},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]float64{{5, 7}, {0, 2}, {1, 3}, {6, 12}}
	if got := covered(iv, 0, 10); got != 8 {
		t.Fatalf("covered = %v, want 8 ([0,3] and [5,10])", got)
	}
}
