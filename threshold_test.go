package parclass

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSplitBetweenExtremeValues trains on two 4-row tables whose only
// attribute takes two values the mid-point rule cannot separate: adjacent
// doubles, whose mid-point rounds down to the lower one, and two values
// near the float64 limit, whose sum overflows to +Inf. Every engine must
// build the one-split tree that classifies its training rows exactly.
func TestSplitBetweenExtremeValues(t *testing.T) {
	algs := []Algorithm{Serial, Basic, FWK, MWK, Subtree, RecordParallel, SLIQ, Hist}
	for _, lohi := range [][2]string{
		{"1", "1.0000000000000002"},
		{"1e308", "1.5e308"},
		{"-1.5e308", "-1e308"},
	} {
		path := filepath.Join(t.TempDir(), "extreme.csv")
		csv := fmt.Sprintf("x,class\n%[1]s,lo\n%[2]s,hi\n%[1]s,lo\n%[2]s,hi\n", lohi[0], lohi[1])
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := LoadCSV(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algs {
			for _, procs := range []int{1, 2} {
				name := fmt.Sprintf("%s/%v/P%d", lohi[0], alg, procs)
				m, err := Train(ds, Options{Algorithm: alg, Procs: procs})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if acc := m.Accuracy(ds); acc != 1 {
					t.Errorf("%s: training accuracy %v, want 1", name, acc)
				}
			}
		}
	}
}
