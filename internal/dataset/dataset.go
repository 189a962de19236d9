// Package dataset provides the training-data layer used by the classifier:
// attribute schemas (continuous and categorical attributes), a columnar
// in-memory table of training tuples, CSV import/export, and train/test
// splitting utilities.
//
// Terminology follows the paper: a tuple is one training example; each tuple
// has d attributes plus a class label. Continuous attributes come from an
// ordered (numeric) domain; categorical attributes from an unordered, finite
// domain encoded as small integer codes with a string name per code.
package dataset

import (
	"fmt"
	"math"
)

// Kind describes the domain of an attribute.
type Kind int

const (
	// Continuous attributes have an ordered numeric domain.
	Continuous Kind = iota
	// Categorical attributes have an unordered finite domain.
	Categorical
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes a single column of the training set.
type Attribute struct {
	// Name is the attribute's identifier (unique within a schema).
	Name string
	// Kind says whether the attribute is continuous or categorical.
	Kind Kind
	// Categories holds the value names of a categorical attribute; the
	// code of a value is its index in this slice. Nil for continuous
	// attributes.
	Categories []string
}

// Cardinality returns the number of distinct categories of a categorical
// attribute, and 0 for a continuous one.
func (a *Attribute) Cardinality() int {
	if a.Kind != Categorical {
		return 0
	}
	return len(a.Categories)
}

// Schema describes the attributes and class labels of a training set.
type Schema struct {
	// Attrs lists the non-class attributes in column order.
	Attrs []Attribute
	// Classes lists the class label names; a class code is its index.
	Classes []string
}

// NumAttrs returns the number of non-class attributes.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// NumClasses returns the number of distinct class labels.
func (s *Schema) NumClasses() int { return len(s.Classes) }

// AttrIndex returns the index of the attribute with the given name, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i := range s.Attrs {
		if s.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// ClassIndex returns the code of the class with the given name, or -1.
func (s *Schema) ClassIndex(name string) int {
	for i, c := range s.Classes {
		if c == name {
			return i
		}
	}
	return -1
}

// Validate checks internal consistency of the schema.
func (s *Schema) Validate() error {
	if len(s.Classes) < 2 {
		return fmt.Errorf("dataset: schema needs at least 2 classes, got %d", len(s.Classes))
	}
	if len(s.Attrs) == 0 {
		return fmt.Errorf("dataset: schema needs at least 1 attribute")
	}
	seen := make(map[string]bool, len(s.Attrs))
	for i := range s.Attrs {
		a := &s.Attrs[i]
		if a.Name == "" {
			return fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Kind {
		case Continuous:
			if len(a.Categories) != 0 {
				return fmt.Errorf("dataset: continuous attribute %q has categories", a.Name)
			}
		case Categorical:
			if len(a.Categories) < 2 {
				return fmt.Errorf("dataset: categorical attribute %q needs >=2 categories, got %d",
					a.Name, len(a.Categories))
			}
		default:
			return fmt.Errorf("dataset: attribute %q has invalid kind %d", a.Name, int(a.Kind))
		}
	}
	return nil
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{
		Attrs:   make([]Attribute, len(s.Attrs)),
		Classes: append([]string(nil), s.Classes...),
	}
	for i := range s.Attrs {
		out.Attrs[i] = s.Attrs[i]
		out.Attrs[i].Categories = append([]string(nil), s.Attrs[i].Categories...)
	}
	return out
}

// Table is a columnar in-memory training set. Continuous columns store
// float64 values; categorical columns store int32 category codes; the class
// column stores int32 class codes. Columns are indexed by attribute index in
// the schema.
type Table struct {
	schema *Schema
	cont   [][]float64 // cont[a] non-nil iff attribute a is continuous
	cat    [][]int32   // cat[a] non-nil iff attribute a is categorical
	class  []int32
}

// NewTable creates an empty table for the given schema. The schema is not
// copied; it must not be mutated afterwards.
func NewTable(schema *Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		schema: schema,
		cont:   make([][]float64, len(schema.Attrs)),
		cat:    make([][]int32, len(schema.Attrs)),
	}
	return t, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumTuples returns the number of tuples in the table.
func (t *Table) NumTuples() int { return len(t.class) }

// ContValue returns the value of continuous attribute a for tuple i.
func (t *Table) ContValue(a, i int) float64 { return t.cont[a][i] }

// CatValue returns the category code of categorical attribute a for tuple i.
func (t *Table) CatValue(a, i int) int32 { return t.cat[a][i] }

// Class returns the class code of tuple i.
func (t *Table) Class(i int) int32 { return t.class[i] }

// ContColumn returns the backing slice of a continuous column (read-only by
// convention). It returns nil for categorical attributes.
func (t *Table) ContColumn(a int) []float64 { return t.cont[a] }

// CatColumn returns the backing slice of a categorical column (read-only by
// convention). It returns nil for continuous attributes.
func (t *Table) CatColumn(a int) []int32 { return t.cat[a] }

// ClassColumn returns the backing slice of the class column (read-only by
// convention).
func (t *Table) ClassColumn() []int32 { return t.class }

// Grow pre-allocates capacity for n additional tuples.
func (t *Table) Grow(n int) {
	for a := range t.schema.Attrs {
		switch t.schema.Attrs[a].Kind {
		case Continuous:
			if cap(t.cont[a])-len(t.cont[a]) < n {
				col := make([]float64, len(t.cont[a]), len(t.cont[a])+n)
				copy(col, t.cont[a])
				t.cont[a] = col
			}
		case Categorical:
			if cap(t.cat[a])-len(t.cat[a]) < n {
				col := make([]int32, len(t.cat[a]), len(t.cat[a])+n)
				copy(col, t.cat[a])
				t.cat[a] = col
			}
		}
	}
	if cap(t.class)-len(t.class) < n {
		cls := make([]int32, len(t.class), len(t.class)+n)
		copy(cls, t.class)
		t.class = cls
	}
}

// Tuple is a decoded row: continuous attributes hold float64, categorical
// attributes hold int32 codes, in schema order.
type Tuple struct {
	Cont  []float64 // indexed by attribute index; meaningful for continuous
	Cat   []int32   // indexed by attribute index; meaningful for categorical
	Class int32
}

// Append adds one tuple to the table. Values are read from tu according to
// the schema; non-finite continuous values and out-of-range codes are
// rejected, naming the row, and leave the table unchanged.
func (t *Table) Append(tu Tuple) error {
	row := t.NumTuples()
	for a := range t.schema.Attrs {
		attr := &t.schema.Attrs[a]
		switch attr.Kind {
		case Continuous:
			if v := tu.Cont[a]; !finite(v) {
				return fmt.Errorf("dataset: row %d, attribute %q: non-finite value %v", row, attr.Name, v)
			}
		case Categorical:
			if code := tu.Cat[a]; code < 0 || int(code) >= len(attr.Categories) {
				return fmt.Errorf("dataset: row %d, attribute %q: category code %d out of range [0,%d)",
					row, attr.Name, code, len(attr.Categories))
			}
		}
	}
	if tu.Class < 0 || int(tu.Class) >= len(t.schema.Classes) {
		return fmt.Errorf("dataset: row %d: class code %d out of range [0,%d)", row, tu.Class, len(t.schema.Classes))
	}
	t.AppendFast(tu)
	return nil
}

// finite reports whether a continuous value can be trained on. The split
// search orders values and splits midway between neighbours, which neither
// NaN nor ±Inf admits, so every checked loader of training rows rejects them.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// AppendFast adds one tuple without validation. It is used by bulk loaders
// (the synthetic generator) that guarantee well-formed codes.
func (t *Table) AppendFast(tu Tuple) {
	for a := range t.schema.Attrs {
		if t.schema.Attrs[a].Kind == Continuous {
			t.cont[a] = append(t.cont[a], tu.Cont[a])
		} else {
			t.cat[a] = append(t.cat[a], tu.Cat[a])
		}
	}
	t.class = append(t.class, tu.Class)
}

// Row decodes tuple i into a Tuple (allocating fresh slices).
func (t *Table) Row(i int) Tuple {
	tu := Tuple{
		Cont:  make([]float64, len(t.schema.Attrs)),
		Cat:   make([]int32, len(t.schema.Attrs)),
		Class: t.class[i],
	}
	for a := range t.schema.Attrs {
		if t.schema.Attrs[a].Kind == Continuous {
			tu.Cont[a] = t.cont[a][i]
		} else {
			tu.Cat[a] = t.cat[a][i]
		}
	}
	return tu
}

// ClassHistogram returns the count of tuples per class code.
func (t *Table) ClassHistogram() []int {
	h := make([]int, len(t.schema.Classes))
	for _, c := range t.class {
		h[c]++
	}
	return h
}

// Subset returns a new table containing the tuples at the given indices, in
// order. The schema is shared.
func (t *Table) Subset(idx []int) *Table {
	out := &Table{
		schema: t.schema,
		cont:   make([][]float64, len(t.schema.Attrs)),
		cat:    make([][]int32, len(t.schema.Attrs)),
		class:  make([]int32, 0, len(idx)),
	}
	for a := range t.schema.Attrs {
		if t.schema.Attrs[a].Kind == Continuous {
			out.cont[a] = make([]float64, 0, len(idx))
		} else {
			out.cat[a] = make([]int32, 0, len(idx))
		}
	}
	for _, i := range idx {
		for a := range t.schema.Attrs {
			if t.schema.Attrs[a].Kind == Continuous {
				out.cont[a] = append(out.cont[a], t.cont[a][i])
			} else {
				out.cat[a] = append(out.cat[a], t.cat[a][i])
			}
		}
		out.class = append(out.class, t.class[i])
	}
	return out
}

// SplitHoldout partitions the table into a training table with the first
// n-k tuples and a test table with the last k tuples, where k = round(n *
// testFrac). It does not shuffle; callers wanting a random split should
// shuffle indices and use Subset.
func (t *Table) SplitHoldout(testFrac float64) (train, test *Table) {
	n := t.NumTuples()
	k := int(float64(n)*testFrac + 0.5)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	trainIdx := make([]int, 0, n-k)
	testIdx := make([]int, 0, k)
	for i := 0; i < n-k; i++ {
		trainIdx = append(trainIdx, i)
	}
	for i := n - k; i < n; i++ {
		testIdx = append(testIdx, i)
	}
	return t.Subset(trainIdx), t.Subset(testIdx)
}

// ApproxBytes estimates the in-memory size of the table's columns in bytes,
// the analogue of the paper's "DB size" column in Table 1.
func (t *Table) ApproxBytes() int64 {
	var b int64
	for a := range t.schema.Attrs {
		if t.schema.Attrs[a].Kind == Continuous {
			b += int64(len(t.cont[a])) * 8
		} else {
			b += int64(len(t.cat[a])) * 4
		}
	}
	b += int64(len(t.class)) * 4
	return b
}
