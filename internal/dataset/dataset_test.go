package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func validSchema() *Schema {
	return &Schema{
		Attrs: []Attribute{
			{Name: "age", Kind: Continuous},
			{Name: "color", Kind: Categorical, Categories: []string{"red", "green"}},
		},
		Classes: []string{"yes", "no"},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := validSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Schema{
		{Attrs: []Attribute{{Name: "a", Kind: Continuous}}, Classes: []string{"x"}},
		{Attrs: nil, Classes: []string{"x", "y"}},
		{Attrs: []Attribute{{Name: "", Kind: Continuous}}, Classes: []string{"x", "y"}},
		{Attrs: []Attribute{{Name: "a", Kind: Continuous}, {Name: "a", Kind: Continuous}},
			Classes: []string{"x", "y"}},
		{Attrs: []Attribute{{Name: "a", Kind: Continuous, Categories: []string{"z"}}},
			Classes: []string{"x", "y"}},
		{Attrs: []Attribute{{Name: "a", Kind: Categorical, Categories: []string{"z"}}},
			Classes: []string{"x", "y"}},
		{Attrs: []Attribute{{Name: "a", Kind: Kind(9)}}, Classes: []string{"x", "y"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %d should be invalid", i)
		}
	}
}

func TestSchemaLookupsAndClone(t *testing.T) {
	s := validSchema()
	if s.AttrIndex("color") != 1 || s.AttrIndex("nope") != -1 {
		t.Fatal("AttrIndex broken")
	}
	if s.ClassIndex("no") != 1 || s.ClassIndex("maybe") != -1 {
		t.Fatal("ClassIndex broken")
	}
	if s.Attrs[1].Cardinality() != 2 || s.Attrs[0].Cardinality() != 0 {
		t.Fatal("Cardinality broken")
	}
	c := s.Clone()
	c.Attrs[1].Categories[0] = "mutated"
	if s.Attrs[1].Categories[0] != "red" {
		t.Fatal("Clone is shallow")
	}
	if Kind(0).String() != "continuous" || Kind(1).String() != "categorical" ||
		!strings.Contains(Kind(9).String(), "9") {
		t.Fatal("Kind.String broken")
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	tbl, err := NewTable(validSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(Tuple{Cont: []float64{30, 0}, Cat: []int32{0, 1}, Class: 0}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(Tuple{Cont: []float64{40, 0}, Cat: []int32{0, 0}, Class: 1}); err != nil {
		t.Fatal(err)
	}
	if tbl.NumTuples() != 2 {
		t.Fatal("NumTuples")
	}
	if tbl.ContValue(0, 1) != 40 || tbl.CatValue(1, 0) != 1 || tbl.Class(1) != 1 {
		t.Fatal("accessors broken")
	}
	// Invalid category / class codes rejected.
	if err := tbl.Append(Tuple{Cont: []float64{1, 0}, Cat: []int32{0, 5}, Class: 0}); err == nil {
		t.Fatal("bad category accepted")
	}
	if err := tbl.Append(Tuple{Cont: []float64{1, 0}, Cat: []int32{0, 0}, Class: 7}); err == nil {
		t.Fatal("bad class accepted")
	}
	h := tbl.ClassHistogram()
	if h[0] != 1 || h[1] != 1 {
		t.Fatalf("histogram %v", h)
	}
	row := tbl.Row(0)
	if row.Cont[0] != 30 || row.Cat[1] != 1 || row.Class != 0 {
		t.Fatalf("Row = %+v", row)
	}
	if tbl.ApproxBytes() <= 0 {
		t.Fatal("ApproxBytes")
	}
}

func TestSubsetAndHoldout(t *testing.T) {
	tbl, _ := NewTable(validSchema())
	for i := 0; i < 10; i++ {
		tbl.AppendFast(Tuple{Cont: []float64{float64(i), 0}, Cat: []int32{0, int32(i % 2)}, Class: int32(i % 2)})
	}
	sub := tbl.Subset([]int{9, 0, 5})
	if sub.NumTuples() != 3 || sub.ContValue(0, 0) != 9 || sub.ContValue(0, 2) != 5 {
		t.Fatal("Subset broken")
	}
	train, test := tbl.SplitHoldout(0.3)
	if train.NumTuples() != 7 || test.NumTuples() != 3 {
		t.Fatalf("holdout %d/%d", train.NumTuples(), test.NumTuples())
	}
	if test.ContValue(0, 0) != 7 {
		t.Fatal("holdout must take the last rows")
	}
	// Degenerate fractions clamp.
	a, b := tbl.SplitHoldout(0)
	if a.NumTuples() != 10 || b.NumTuples() != 0 {
		t.Fatal("zero-fraction holdout")
	}
	a, b = tbl.SplitHoldout(1)
	if a.NumTuples() != 0 || b.NumTuples() != 10 {
		t.Fatal("full-fraction holdout")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl, _ := NewTable(validSchema())
	tbl.AppendFast(Tuple{Cont: []float64{30.25, 0}, Cat: []int32{0, 1}, Class: 0})
	tbl.AppendFast(Tuple{Cont: []float64{-4, 0}, Cat: []int32{0, 0}, Class: 1})

	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTuples() != 2 || back.ContValue(0, 0) != 30.25 ||
		back.CatValue(1, 0) != 1 || back.Class(1) != 1 {
		t.Fatal("round trip lost data")
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := validSchema()
	cases := []string{
		"",                               // no header
		"age,wrong,class\n1,red,yes\n",   // wrong column name
		"age,color\n1,red\n",             // missing class column
		"age,color,class\nx,red,yes\n",   // bad float
		"age,color,class\n1,blue,yes\n",  // unknown category
		"age,color,class\n1,red,maybe\n", // unknown class
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), s); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestInferCSV(t *testing.T) {
	in := "age,color,class\n30,red,yes\n40,green,no\n50,red,yes\n"
	tbl, err := InferCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	if s.Attrs[0].Kind != Continuous {
		t.Fatal("age should be continuous")
	}
	if s.Attrs[1].Kind != Categorical || len(s.Attrs[1].Categories) != 2 {
		t.Fatal("color should be categorical with 2 categories")
	}
	if len(s.Classes) != 2 || tbl.NumTuples() != 3 {
		t.Fatal("classes/tuples wrong")
	}
	if _, err := InferCSV(strings.NewReader("a,class\n")); err == nil {
		t.Fatal("header-only CSV should fail")
	}
}

// TestNonFiniteRejectedAtLoad: NaN and ±Inf in a continuous column would
// load and then break every engine's split search, so each checked loader
// rejects them with an error naming the line or row and the attribute, and
// Append leaves the table as it was.
func TestNonFiniteRejectedAtLoad(t *testing.T) {
	const want = `line 3, attribute "age"`
	for _, raw := range []string{"NaN", "+Inf", "-Inf"} {
		in := "age,color,class\n30,red,yes\n" + raw + ",green,no\n"
		if _, err := ReadCSV(strings.NewReader(in), validSchema()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadCSV %s: err %v, want one naming %s", raw, err, want)
		}
		if _, err := InferCSV(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("InferCSV %s: err %v, want one naming %s", raw, err, want)
		}
	}

	tbl, _ := NewTable(validSchema())
	if err := tbl.Append(Tuple{Cont: []float64{30, 0}, Cat: []int32{0, 1}, Class: 0}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := tbl.Append(Tuple{Cont: []float64{v, 0}, Cat: []int32{0, 1}, Class: 0})
		if want := `row 1, attribute "age"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Append %v: err %v, want one naming %s", v, err, want)
		}
		if tbl.NumTuples() != 1 || len(tbl.ContColumn(0)) != 1 {
			t.Fatalf("Append %v: rejected row changed the table", v)
		}
	}
}

// Property: Subset(identity permutation) preserves every tuple and class.
func TestSubsetIdentityProperty(t *testing.T) {
	f := func(vals []float64) bool {
		tbl, _ := NewTable(validSchema())
		for i, v := range vals {
			tbl.AppendFast(Tuple{Cont: []float64{v, 0}, Cat: []int32{0, int32(i % 2)}, Class: int32(i % 2)})
		}
		idx := make([]int, tbl.NumTuples())
		for i := range idx {
			idx[i] = i
		}
		sub := tbl.Subset(idx)
		if sub.NumTuples() != tbl.NumTuples() {
			return false
		}
		for i := 0; i < tbl.NumTuples(); i++ {
			if sub.ContValue(0, i) != tbl.ContValue(0, i) ||
				sub.CatValue(1, i) != tbl.CatValue(1, i) ||
				sub.Class(i) != tbl.Class(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGrow(t *testing.T) {
	tbl, _ := NewTable(validSchema())
	tbl.AppendFast(Tuple{Cont: []float64{1, 0}, Cat: []int32{0, 0}, Class: 0})
	tbl.Grow(1000)
	if tbl.NumTuples() != 1 {
		t.Fatal("Grow must not change length")
	}
	if tbl.ContValue(0, 0) != 1 {
		t.Fatal("Grow lost data")
	}
}

// TestCSVWriterMatchesWriteCSV checks the row-streaming writer produces
// byte-identical output to the table-level WriteCSV.
func TestCSVWriterMatchesWriteCSV(t *testing.T) {
	schema := validSchema()
	tbl, err := NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	tuples := []Tuple{
		{Cont: []float64{1.5, 0}, Cat: []int32{0, 1}, Class: 0},
		{Cont: []float64{-2.25, 0}, Cat: []int32{0, 0}, Class: 1},
		{Cont: []float64{1e9, 0}, Cat: []int32{0, 1}, Class: 0},
	}
	for _, tu := range tuples {
		tbl.AppendFast(tu)
	}
	var whole strings.Builder
	if err := tbl.WriteCSV(&whole); err != nil {
		t.Fatal(err)
	}
	var rows strings.Builder
	cw, err := NewCSVWriter(&rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if err := cw.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if whole.String() != rows.String() {
		t.Fatalf("outputs differ:\nWriteCSV:\n%s\nCSVWriter:\n%s", whole.String(), rows.String())
	}
}
