// Package cluster is the multi-node serving tier: a replicated model
// registry over the single-node serve.Server. Every node holds a full
// replica of every published model artifact (the same v1/v2 JSON envelope
// WriteModel produces), stamped with a version vector. A model published
// anywhere — operator upload or retrain swap — is pushed to all peers
// immediately, and a pull-based anti-entropy loop repairs whatever the
// push missed (a down node converges on restart). There is no leader and
// no quorum: model artifacts are immutable values and the version-vector
// partial order plus a deterministic concurrent-update tiebreak make the
// replica state a join semilattice, so any exchange order converges. See
// DESIGN.md ("Version-vector replication, not consensus").
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Version is a version vector: per-node update counters for one model
// name. A node bumps its own entry when it locally publishes (upload or
// retrain swap); replication carries the vector alongside the artifact so
// every replica can order updates causally instead of by wall clock.
type Version map[string]uint64

// Order is the outcome of comparing two version vectors.
type Order int

const (
	// Equal: identical histories.
	Equal Order = iota
	// Before: the receiver's history is a strict prefix of the other's —
	// the other dominates.
	Before
	// After: the receiver dominates.
	After
	// Concurrent: each side saw updates the other did not; neither
	// dominates and the tiebreak decides.
	Concurrent
)

func (o Order) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return "concurrent"
	}
}

// Compare orders v against o in the version-vector partial order.
func (v Version) Compare(o Version) Order {
	vAhead, oAhead := false, false
	for n, c := range v {
		if c > o[n] {
			vAhead = true
		}
	}
	for n, c := range o {
		if c > v[n] {
			oAhead = true
		}
	}
	switch {
	case vAhead && oAhead:
		return Concurrent
	case vAhead:
		return After
	case oAhead:
		return Before
	default:
		return Equal
	}
}

// Merge returns the pointwise maximum of v and o — the least vector that
// dominates both. Used to stamp a concurrent-update winner so the
// tiebreak decision itself dominates (is sticky) everywhere it spreads.
func (v Version) Merge(o Version) Version {
	out := make(Version, len(v)+len(o))
	for n, c := range v {
		out[n] = c
	}
	for n, c := range o {
		if c > out[n] {
			out[n] = c
		}
	}
	return out
}

// Clone copies v.
func (v Version) Clone() Version {
	out := make(Version, len(v))
	for n, c := range v {
		out[n] = c
	}
	return out
}

// Bump returns a copy of v with node's counter incremented — the stamp
// for a local publish on node.
func (v Version) Bump(node string) Version {
	out := v.Clone()
	out[node]++
	return out
}

// String renders v in the canonical wire form "a=1,b=2" (node-sorted,
// empty string for the zero vector). This is the X-Parclass-Version
// header value and the /v1/cluster JSON form.
func (v Version) String() string {
	if len(v) == 0 {
		return ""
	}
	nodes := make([]string, 0, len(v))
	for n := range v {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var b strings.Builder
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", n, v[n])
	}
	return b.String()
}

// checkNodeID reports why id cannot be a version-vector axis, or nil.
// String writes IDs unescaped, so an ID must not hold the entry or counter
// separator, whitespace (ParseVersion trims it), a control character or
// invalid UTF-8 (the JSON digest replaces it): any of these would come
// back from a round trip as a parse error or as a different ID.
func checkNodeID(id string) error {
	if id == "" {
		return errors.New("is empty")
	}
	if !utf8.ValidString(id) {
		return errors.New("is not valid UTF-8")
	}
	for _, r := range id {
		if r == ',' || r == '=' || unicode.IsSpace(r) || unicode.IsControl(r) {
			return fmt.Errorf("contains %q", r)
		}
	}
	return nil
}

// ParseVersion parses the wire form produced by String. The empty string
// is the zero vector. An entry whose node is not a valid node ID, or a
// node named twice, is an error.
func ParseVersion(s string) (Version, error) {
	v := Version{}
	if s = strings.TrimSpace(s); s == "" {
		return v, nil
	}
	for _, part := range strings.Split(s, ",") {
		node, cnt, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("cluster: bad version entry %q", part)
		}
		if err := checkNodeID(node); err != nil {
			return nil, fmt.Errorf("cluster: bad version entry %q: node %v", part, err)
		}
		if _, dup := v[node]; dup {
			return nil, fmt.Errorf("cluster: duplicate version axis %q", node)
		}
		c, err := strconv.ParseUint(cnt, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad version counter in %q: %v", part, err)
		}
		v[node] = c
	}
	return v, nil
}
