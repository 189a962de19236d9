package main

import (
	"testing"

	parclass "repro"
)

// TestModesBuildSameTable checks -synthetic and -measure profile one
// table: the Serial tree -measure trains splits exactly as many nodes, over
// as many levels, as the -synthetic trace records.
func TestModesBuildSameTable(t *testing.T) {
	const spec = "F7-A9-D3K"
	tr, err := loadTrace("", spec)
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for _, lv := range tr.Levels {
		traced += len(lv.Leaves)
	}
	tbl, err := specTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := parclass.Train(parclass.DatasetFromTable(tbl), parclass.Options{Algorithm: parclass.Serial})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if split := st.Nodes - st.Leaves; split != traced || st.Levels != len(tr.Levels)+1 {
		t.Fatalf("-measure tree splits %d nodes over %d levels; -synthetic trace has %d over %d",
			split, st.Levels, traced, len(tr.Levels)+1)
	}
}
