// Package tree defines the decision-tree model produced by the classifier:
// nodes with binary split tests (continuous threshold or categorical
// subset), prediction, structural statistics (the paper's "tree size" =
// number of levels and maximum leaves per level), and rule/text export.
package tree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/split"
)

// Node is a decision-tree node. A node with a nil Split is a leaf predicting
// Class; otherwise tuples with Split.GoesLeft(value) true descend to Left.
type Node struct {
	// ID is a stable identifier assigned in construction (BFS) order.
	ID int
	// Level is the node's depth; the root is level 0.
	Level int
	// N is the number of training tuples that reached the node.
	N int64
	// ClassCounts is the class histogram of those tuples.
	ClassCounts []int64
	// Class is the majority class (ties break toward the lower code).
	Class int32
	// Split is the node's test; nil for leaves.
	Split *split.Candidate
	// Left and Right are the children (nil for leaves).
	Left, Right *Node
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Split == nil }

// MajorityClass returns the majority class of a histogram, breaking ties
// toward the lower class code.
func MajorityClass(counts []int64) int32 {
	best := int32(0)
	for j := 1; j < len(counts); j++ {
		if counts[j] > counts[best] {
			best = int32(j)
		}
	}
	return best
}

// Errors returns the number of training tuples at the node not belonging to
// its majority class.
func (n *Node) Errors() int64 {
	return n.N - n.ClassCounts[n.Class]
}

// Tree is a trained decision-tree classifier.
type Tree struct {
	Root   *Node
	Schema *dataset.Schema
}

// Predict classifies one decoded tuple, returning the class code.
func (t *Tree) Predict(tu dataset.Tuple) int32 { return t.Leaf(tu).Class }

// Leaf returns the leaf a decoded tuple lands in.
func (t *Tree) Leaf(tu dataset.Tuple) *Node {
	n := t.Root
	for !n.IsLeaf() {
		var v float64
		if n.Split.Kind == dataset.Continuous {
			v = tu.Cont[n.Split.Attr]
		} else {
			v = float64(tu.Cat[n.Split.Attr])
		}
		if n.Split.GoesLeft(v) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Accuracy returns the fraction of tuples in tbl the tree classifies
// correctly.
func (t *Tree) Accuracy(tbl *dataset.Table) float64 {
	n := tbl.NumTuples()
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		if t.Predict(tbl.Row(i)) == tbl.Class(i) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// Stats summarizes the tree's structure; Levels and MaxLeavesPerLevel are
// the two "tree size" columns of the paper's Table 1.
type Stats struct {
	Nodes             int
	Leaves            int
	Levels            int
	MaxLeavesPerLevel int
	// LeavesPerLevel[d] is the number of leaf nodes at depth d.
	LeavesPerLevel []int
	// NodesPerLevel[d] is the number of nodes at depth d.
	NodesPerLevel []int
}

// Stats computes structural statistics.
func (t *Tree) Stats() Stats {
	var s Stats
	if t.Root == nil {
		return s
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for len(s.NodesPerLevel) <= n.Level {
			s.NodesPerLevel = append(s.NodesPerLevel, 0)
			s.LeavesPerLevel = append(s.LeavesPerLevel, 0)
		}
		s.Nodes++
		s.NodesPerLevel[n.Level]++
		if n.IsLeaf() {
			s.Leaves++
			s.LeavesPerLevel[n.Level]++
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	s.Levels = len(s.NodesPerLevel)
	for _, l := range s.LeavesPerLevel {
		if l > s.MaxLeavesPerLevel {
			s.MaxLeavesPerLevel = l
		}
	}
	return s
}

// testString renders a node's split test using schema names.
func (t *Tree) testString(c *split.Candidate) string {
	attr := &t.Schema.Attrs[c.Attr]
	if c.Kind == dataset.Continuous {
		return fmt.Sprintf("%s < %g", attr.Name, c.Threshold)
	}
	var names []string
	for code := int32(0); int(code) < len(attr.Categories); code++ {
		if c.Subset.Has(code) {
			names = append(names, attr.Categories[code])
		}
	}
	return fmt.Sprintf("%s in {%s}", attr.Name, strings.Join(names, ","))
}

// String renders the tree as an indented outline.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%s=> %s (n=%d, err=%d)\n", indent,
				t.Schema.Classes[n.Class], n.N, n.Errors())
			return
		}
		fmt.Fprintf(&b, "%sif %s: (n=%d)\n", indent, t.testString(n.Split), n.N)
		walk(n.Left, indent+"  ")
		fmt.Fprintf(&b, "%selse:\n", indent)
		walk(n.Right, indent+"  ")
	}
	walk(t.Root, "")
	return b.String()
}

// Rule is one root-to-leaf path expressed as a conjunction of tests.
type Rule struct {
	Conditions []string
	Class      string
	N          int64
	Errors     int64
}

// Rules flattens the tree into rules, one per leaf, in left-to-right order.
func (t *Tree) Rules() []Rule {
	var rules []Rule
	var walk func(n *Node, conds []string)
	walk = func(n *Node, conds []string) {
		if n.IsLeaf() {
			rules = append(rules, Rule{
				Conditions: append([]string(nil), conds...),
				Class:      t.Schema.Classes[n.Class],
				N:          n.N,
				Errors:     n.Errors(),
			})
			return
		}
		test := t.testString(n.Split)
		walk(n.Left, append(conds, test))
		walk(n.Right, append(conds, "not("+test+")"))
	}
	walk(t.Root, nil)
	return rules
}

// sqlTestString renders a node's split test as a SQL predicate.
func (t *Tree) sqlTestString(c *split.Candidate) string {
	attr := &t.Schema.Attrs[c.Attr]
	if c.Kind == dataset.Continuous {
		return fmt.Sprintf("%s < %g", attr.Name, c.Threshold)
	}
	var names []string
	for code := int32(0); int(code) < len(attr.Categories); code++ {
		if c.Subset.Has(code) {
			names = append(names, "'"+attr.Categories[code]+"'")
		}
	}
	return fmt.Sprintf("%s IN (%s)", attr.Name, strings.Join(names, ","))
}

// SQL renders the tree as a SQL CASE expression over a table with the
// schema's column names — the paper's observation that "trees can be
// converted into SQL statements that can be used to access databases".
func (t *Tree) SQL() string {
	var b strings.Builder
	b.WriteString("CASE\n")
	var walk func(n *Node, conds []string)
	walk = func(n *Node, conds []string) {
		if n.IsLeaf() {
			cond := "1=1"
			if len(conds) > 0 {
				cond = strings.Join(conds, " AND ")
			}
			fmt.Fprintf(&b, "  WHEN %s THEN '%s'\n", cond, t.Schema.Classes[n.Class])
			return
		}
		test := t.sqlTestString(n.Split)
		walk(n.Left, append(conds, "("+test+")"))
		walk(n.Right, append(conds, "NOT ("+test+")"))
	}
	walk(t.Root, nil)
	b.WriteString("END")
	return b.String()
}

// Equal reports whether two trees have identical structure, split tests and
// leaf predictions. It is the determinism oracle used by the tests: every
// parallel scheme must produce a tree Equal to serial SPRINT's.
func Equal(a, b *Tree) bool {
	var eq func(x, y *Node) bool
	eq = func(x, y *Node) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		if x == nil {
			return true
		}
		if x.IsLeaf() != y.IsLeaf() || x.N != y.N {
			return false
		}
		if len(x.ClassCounts) != len(y.ClassCounts) {
			return false
		}
		for j := range x.ClassCounts {
			if x.ClassCounts[j] != y.ClassCounts[j] {
				return false
			}
		}
		if x.IsLeaf() {
			return x.Class == y.Class
		}
		sx, sy := x.Split, y.Split
		if sx.Attr != sy.Attr || sx.Kind != sy.Kind {
			return false
		}
		if sx.Kind == dataset.Continuous {
			if sx.Threshold != sy.Threshold {
				return false
			}
		} else if !sx.Subset.Equal(sy.Subset) {
			return false
		}
		return eq(x.Left, y.Left) && eq(x.Right, y.Right)
	}
	return eq(a.Root, b.Root)
}

// Diff returns a short description of the first structural difference
// between two trees, or "" if Equal. Used by tests for debuggable failures.
func Diff(a, b *Tree) string {
	var diff string
	var eq func(x, y *Node, path string) bool
	eq = func(x, y *Node, path string) bool {
		if (x == nil) != (y == nil) {
			diff = fmt.Sprintf("%s: nil mismatch", path)
			return false
		}
		if x == nil {
			return true
		}
		if x.N != y.N {
			diff = fmt.Sprintf("%s: n %d vs %d", path, x.N, y.N)
			return false
		}
		if x.IsLeaf() != y.IsLeaf() {
			diff = fmt.Sprintf("%s: leaf %v vs %v", path, x.IsLeaf(), y.IsLeaf())
			return false
		}
		if x.IsLeaf() {
			if x.Class != y.Class {
				diff = fmt.Sprintf("%s: class %d vs %d", path, x.Class, y.Class)
				return false
			}
			return true
		}
		if x.Split.Attr != y.Split.Attr {
			diff = fmt.Sprintf("%s: attr %d vs %d", path, x.Split.Attr, y.Split.Attr)
			return false
		}
		if x.Split.Kind == dataset.Continuous && x.Split.Threshold != y.Split.Threshold {
			diff = fmt.Sprintf("%s: threshold %g vs %g", path, x.Split.Threshold, y.Split.Threshold)
			return false
		}
		if x.Split.Kind == dataset.Categorical && !x.Split.Subset.Equal(y.Split.Subset) {
			diff = fmt.Sprintf("%s: subset %v vs %v", path, x.Split.Subset, y.Split.Subset)
			return false
		}
		return eq(x.Left, y.Left, path+"L") && eq(x.Right, y.Right, path+"R")
	}
	eq(a.Root, b.Root, "root")
	return diff
}

// CollectLeaves returns all leaves in left-to-right order.
func (t *Tree) CollectLeaves() []*Node {
	var leaves []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			leaves = append(leaves, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	if t.Root != nil {
		walk(t.Root)
	}
	return leaves
}

// AttrUsage returns how many internal nodes split on each attribute,
// sorted by descending count — a quick interpretability aid used by the
// examples.
func (t *Tree) AttrUsage() []AttrCount {
	counts := map[int]int{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		counts[n.Split.Attr]++
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	out := make([]AttrCount, 0, len(counts))
	for a, c := range counts {
		out = append(out, AttrCount{Attr: a, Name: t.Schema.Attrs[a].Name, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// AttrCount pairs an attribute with its split count.
type AttrCount struct {
	Attr  int
	Name  string
	Count int
}
