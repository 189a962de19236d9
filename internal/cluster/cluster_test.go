package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	parclass "repro"
	"repro/internal/serve"
)

// trainTree builds a deterministic single-tree model (v1 envelope).
func trainTree(t testing.TB, fn, tuples int) *parclass.Model {
	t.Helper()
	ds, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: fn, Tuples: tuples, Seed: 7, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := parclass.Train(ds, parclass.Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// trainForest builds a deterministic forest (v2 envelope).
func trainForest(t testing.TB, trees int) *parclass.Forest {
	t.Helper()
	ds, err := parclass.Synthetic(parclass.SyntheticConfig{
		Function: 1, Tuples: 2000, Seed: 7, Perturbation: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := parclass.TrainForest(ds, parclass.Options{Trees: trees, ForestSeed: 11, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// envelope serializes m to its wire artifact.
func envelope(t testing.TB, m parclass.Predictor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testNode is one in-process fleet member.
type testNode struct {
	id string
	s  *serve.Server
	n  *Node
	ts *httptest.Server
	ft *FaultTransport

	handler atomic.Value // http.Handler, set once the Node exists
}

// newFleet builds count nodes, each an httptest server peered with all
// the others, each with its own FaultTransport. No anti-entropy loops run;
// tests drive SyncOnce by hand for determinism.
func newFleet(t testing.TB, count int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, count)
	for i := range nodes {
		tn := &testNode{id: fmt.Sprintf("%c", 'a'+i), s: serve.New("")}
		// The listener must exist before the Node (peers need URLs), so the
		// handler is routed through an atomic set after construction.
		tn.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tn.handler.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(tn.ts.Close)
		nodes[i] = tn
	}
	for i, tn := range nodes {
		var peers []string
		for j, o := range nodes {
			if j != i {
				peers = append(peers, o.ts.URL)
			}
		}
		tn.ft = NewFaultTransport(nil)
		n, err := New(Config{
			ID: tn.id, Self: tn.ts.URL, Peers: peers,
			Client: &http.Client{Transport: tn.ft, Timeout: 5 * time.Second},
		}, tn.s)
		if err != nil {
			t.Fatal(err)
		}
		tn.n = n
		tn.handler.Store(n.Handler())
	}
	return nodes
}

// host strips the scheme off an httptest URL for FaultTransport matching.
func host(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// waitFor polls cond for up to 5s.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serving reports whether the node serves name, and with how many trees.
func serving(t testing.TB, tn *testNode, name string) (ok bool, trees int) {
	t.Helper()
	resp, err := http.Get(tn.ts.URL + "/v1/model/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false, 0
	}
	var info struct {
		Trees int `json:"trees"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return true, info.Trees
}

func TestVersionVector(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want Order
	}{
		{"", "", Equal},
		{"a=1", "a=1", Equal},
		{"", "a=1", Before},
		{"a=1", "", After},
		{"a=1", "a=1,b=1", Before},
		{"a=2,b=1", "a=1,b=1", After},
		{"a=1", "b=1", Concurrent},
		{"a=2,b=1", "a=1,b=2", Concurrent},
	} {
		a, err := ParseVersion(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ParseVersion(tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Compare(b); got != tc.want {
			t.Errorf("%q vs %q = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}

	a, _ := ParseVersion("a=2,b=1")
	b, _ := ParseVersion("a=1,c=3")
	if got := a.Merge(b).String(); got != "a=2,b=1,c=3" {
		t.Errorf("merge = %q", got)
	}
	if got := a.Bump("b").String(); got != "a=2,b=2" {
		t.Errorf("bump = %q", got)
	}
	if a.String() != "a=2,b=1" {
		t.Errorf("bump mutated receiver: %q", a)
	}
	for _, bad := range []string{
		"a", "a=", "=1", "a=x", "a=1,,b=2",
		"a=1,a=2", "a=1,b=1,a=1", // duplicate axes: no silent last-wins
		"a b=1", "a\x00=1", "\xff=1", // node IDs New rejects
	} {
		if _, err := ParseVersion(bad); err == nil {
			t.Errorf("ParseVersion(%q) accepted", bad)
		}
	}
}

// TestNodeIDMustRoundTrip pins which node IDs New accepts: exactly those
// whose version-vector entry survives String and ParseVersion unchanged.
// An ID holding the wire form's separators, whitespace or a control
// character used to be accepted and then broke every pull of an artifact
// the node published ("a,b" came back as a parse error, " sp" as "sp").
func TestNodeIDMustRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{"a", true},
		{"node-1", true},
		{"eu.west:8081", true},
		{"ñodo", true},
		{"", false},
		{"a,b", false},
		{"n=1", false},
		{" sp", false},
		{"sp ", false},
		{"a b", false},
		{"a\tb", false},
		{"a\x00", false},
		{"a\u0085", false}, // NEL: Unicode whitespace that TrimSpace strips
		{"\xff", false},
	} {
		_, err := New(Config{ID: tc.id}, serve.New(""))
		if (err == nil) != tc.ok {
			t.Errorf("New(ID %q) error %v, want accepted=%v", tc.id, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		v := Version{tc.id: 3, "z": 1}
		got, err := ParseVersion(v.String())
		if err != nil || got.String() != v.String() || len(got) != 2 || got[tc.id] != 3 {
			t.Errorf("ID %q: %q parsed back as %v (%v)", tc.id, v.String(), got, err)
		}
	}
}

// TestUploadReplicatesToPeers is the tentpole happy path: a model POSTed
// to any node starts serving on every node, exactly once — the
// replication-applied loads must not echo back out as fresh publishes.
func TestUploadReplicatesToPeers(t *testing.T) {
	nodes := newFleet(t, 3)
	raw := envelope(t, trainTree(t, 1, 2000))

	resp, err := http.Post(nodes[0].ts.URL+"/v1/models/default", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	for _, tn := range nodes {
		tn := tn
		waitFor(t, func() bool { ok, _ := serving(t, tn, "default"); return ok })
		waitFor(t, func() bool {
			d := tn.n.Digest()
			return d["default"].Version == "a=1"
		})
	}
	// One origin, one hop per peer: only node a published, the others
	// applied — nobody re-replicated a replicated load.
	if p := nodes[0].n.published.Load(); p != 1 {
		t.Fatalf("origin published %d, want 1", p)
	}
	for _, tn := range nodes[1:] {
		if p := tn.n.published.Load(); p != 0 {
			t.Fatalf("node %s republished a replicated model (%d publishes): replication echo", tn.id, p)
		}
		if a := tn.n.applied.Load(); a != 1 {
			t.Fatalf("node %s applied %d, want 1", tn.id, a)
		}
	}
	if a := nodes[0].n.applied.Load(); a != 0 {
		t.Fatalf("origin applied %d of its own pushes back", a)
	}
}

// TestMixedVersionBothOrders is the mixed-envelope shipping test: a v1
// single-tree artifact stamped {a:1} and a v2 forest artifact for the
// SAME name stamped {a:1,b:1} must converge to the forest in both
// delivery orders — the version vector, not arrival time, decides. A
// last-write-wins registry passes the first order and fails the second.
func TestMixedVersionBothOrders(t *testing.T) {
	treeRaw := envelope(t, trainTree(t, 1, 2000))
	forestRaw := envelope(t, trainForest(t, 5))
	older, _ := ParseVersion("a=1")
	newer, _ := ParseVersion("a=1,b=1")

	deliver := func(t *testing.T, first []byte, fv Version, second []byte, sv Version, wantSecondApplied bool) *testNode {
		t.Helper()
		tn := newFleet(t, 1)[0]
		if applied, err := tn.n.ApplyRemote("default", first, fv); err != nil || !applied {
			t.Fatalf("first delivery: applied=%v err=%v", applied, err)
		}
		applied, err := tn.n.ApplyRemote("default", second, sv)
		if err != nil {
			t.Fatal(err)
		}
		if applied != wantSecondApplied {
			t.Fatalf("second delivery applied=%v, want %v", applied, wantSecondApplied)
		}
		return tn
	}

	t.Run("v1-then-v2", func(t *testing.T) {
		tn := deliver(t, treeRaw, older, forestRaw, newer, true)
		if _, trees := serving(t, tn, "default"); trees != 5 {
			t.Fatalf("serving %d trees, want the 5-tree forest", trees)
		}
		if v := tn.n.Digest()["default"].Version; v != "a=1,b=1" {
			t.Fatalf("version %q, want a=1,b=1", v)
		}
	})
	t.Run("v2-then-v1", func(t *testing.T) {
		// The stale v1 artifact arrives LAST; a wall-clock registry would
		// install it and regress the model.
		tn := deliver(t, forestRaw, newer, treeRaw, older, false)
		if _, trees := serving(t, tn, "default"); trees != 5 {
			t.Fatalf("serving %d trees after late stale delivery, want 5: stale v1 clobbered the forest", trees)
		}
		if v := tn.n.Digest()["default"].Version; v != "a=1,b=1" {
			t.Fatalf("version %q, want a=1,b=1", v)
		}
	})
}

// TestConcurrentTiebreakBothOrders: two artifacts published concurrently
// on different nodes ({a:1} vs {b:1}) must converge to the SAME artifact
// on every node regardless of delivery order, and the decision must be
// sticky — the merged vector dominates both inputs, so the losing
// artifact can never reopen the comparison.
func TestConcurrentTiebreakBothOrders(t *testing.T) {
	rawA := envelope(t, trainTree(t, 1, 2000))
	rawB := envelope(t, trainTree(t, 7, 2000))
	if hashOf(rawA) == hashOf(rawB) {
		t.Fatal("test needs distinct artifacts")
	}
	va, _ := ParseVersion("a=1")
	vb, _ := ParseVersion("b=1")

	x := newFleet(t, 1)[0]
	for _, step := range []struct {
		raw []byte
		v   Version
	}{{rawA, va}, {rawB, vb}} {
		if _, err := x.n.ApplyRemote("default", step.raw, step.v); err != nil {
			t.Fatal(err)
		}
	}
	y := newFleet(t, 1)[0]
	for _, step := range []struct {
		raw []byte
		v   Version
	}{{rawB, vb}, {rawA, va}} {
		if _, err := y.n.ApplyRemote("default", step.raw, step.v); err != nil {
			t.Fatal(err)
		}
	}

	dx, dy := x.n.Digest()["default"], y.n.Digest()["default"]
	if dx.Hash != dy.Hash {
		t.Fatalf("delivery order changed the winner: %s vs %s", dx.Hash, dy.Hash)
	}
	if dx.Version != "a=1,b=1" || dy.Version != "a=1,b=1" {
		t.Fatalf("versions %q / %q, want a=1,b=1 on both", dx.Version, dy.Version)
	}

	// Sticky: re-delivering the loser is now dominated, not concurrent.
	loser, lv := rawA, va
	if dx.Hash == fmt.Sprintf("%016x", hashOf(rawA)) {
		loser, lv = rawB, vb
	}
	applied, err := x.n.ApplyRemote("default", loser, lv)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("settled tiebreak reopened by re-delivery")
	}
}

// TestAntiEntropyHealsPartition scripts a deterministic partition with
// the fault transport: node a's pushes to node b are dropped, so b misses
// an upload that c receives; after the partition heals, one pull round on
// b converges it, and a's status reflects the whole story (b down with
// errors during the partition, live with lag 0 after).
func TestAntiEntropyHealsPartition(t *testing.T) {
	nodes := newFleet(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	release := a.ft.Partition(host(b.ts))

	raw := envelope(t, trainTree(t, 1, 2000))
	resp, err := http.Post(a.ts.URL+"/v1/models/default", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}

	// c converges by push; b never hears about it.
	waitFor(t, func() bool { return c.n.Digest()["default"].Version == "a=1" })
	waitFor(t, func() bool {
		for _, p := range a.n.Status().Peers {
			if p.URL == b.ts.URL {
				return !p.Live && p.Errors > 0
			}
		}
		return false
	})
	if _, ok := b.n.Digest()["default"]; ok {
		t.Fatal("partitioned node received the push anyway")
	}

	// a's digest exchange with b is also partitioned; the round must cost
	// an error, not a hang, and must not wedge the other peer's sync.
	a.n.SyncOnce()
	for _, p := range a.n.Status().Peers {
		if p.URL == c.ts.URL && (!p.Live || p.Lag != 0) {
			t.Fatalf("healthy peer c marked live=%v lag=%d during b's partition", p.Live, p.Lag)
		}
	}

	// Heal; one pull round on b repairs it (pull-based anti-entropy: the
	// restarted/rejoined node needs no replay from the origin's push path).
	release()
	b.n.SyncOnce()
	d := b.n.Digest()["default"]
	if d.Version != "a=1" || d.Hash != fmt.Sprintf("%016x", hashOf(raw)) {
		t.Fatalf("post-heal digest %+v", d)
	}
	if ok, _ := serving(t, b, "default"); !ok {
		t.Fatal("healed node not serving the replicated model")
	}
	a.n.SyncOnce()
	for _, p := range a.n.Status().Peers {
		if p.URL == b.ts.URL && (!p.Live || p.Lag != 0) {
			t.Fatalf("healed peer b still live=%v lag=%d", p.Live, p.Lag)
		}
	}
}

// TestSeedDominatedByAnyPublish: boot seeds carry the zero vector, so the
// first real publish anywhere replaces them fleet-wide.
func TestSeedDominatedByAnyPublish(t *testing.T) {
	tn := newFleet(t, 1)[0]
	seed := trainTree(t, 1, 1000)
	if _, err := tn.s.Load("default", seed, "boot"); err != nil {
		t.Fatal(err)
	}
	if err := tn.n.Seed("default", seed); err != nil {
		t.Fatal(err)
	}
	if v := tn.n.Digest()["default"].Version; v != "" {
		t.Fatalf("seed version %q, want zero vector", v)
	}
	raw := envelope(t, trainForest(t, 3))
	v, _ := ParseVersion("b=1")
	applied, err := tn.n.ApplyRemote("default", raw, v)
	if err != nil || !applied {
		t.Fatalf("publish vs seed: applied=%v err=%v", applied, err)
	}
	if _, trees := serving(t, tn, "default"); trees != 3 {
		t.Fatalf("serving %d trees, want 3", trees)
	}
}

// TestClusterRouteContract pins the wire surface: status shape, artifact
// roundtrip with version header, 404/405/400 answers.
func TestClusterRouteContract(t *testing.T) {
	nodes := newFleet(t, 2)
	a := nodes[0]
	raw := envelope(t, trainTree(t, 1, 2000))
	v, _ := ParseVersion("a=1")
	if _, err := a.n.ApplyRemote("default", raw, v); err != nil {
		t.Fatal(err)
	}

	var st Status
	resp, err := http.Get(a.ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != "a" || len(st.Peers) != 1 || st.Models["default"].Version != "a=1" {
		t.Fatalf("status %+v", st)
	}

	// Artifact roundtrip: exact bytes, version header.
	resp, err = http.Get(a.ts.URL + "/v1/cluster/artifact/default")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(got, raw) {
		t.Fatalf("artifact roundtrip: status %d, %d bytes vs %d", resp.StatusCode, len(got), len(raw))
	}
	if resp.Header.Get(versionHeader) != "a=1" {
		t.Fatalf("artifact version header %q", resp.Header.Get(versionHeader))
	}

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", "/v1/cluster/artifact/nope", 404},
		{"GET", "/v1/cluster/nonsense", 404},
		{"POST", "/v1/cluster", 405},
		{"GET", "/v1/cluster/replicate/default", 405},
	} {
		req, _ := http.NewRequest(tc.method, a.ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		if tc.want == 405 && resp.Header.Get("Allow") == "" {
			t.Fatalf("%s %s: 405 without Allow", tc.method, tc.path)
		}
	}

	// Bad version header → 400.
	req, _ := http.NewRequest("POST", a.ts.URL+"/v1/cluster/replicate/default", bytes.NewReader(raw))
	req.Header.Set(versionHeader, "not-a-vector")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad version header status %d, want 400", resp.StatusCode)
	}

	// Garbage artifact → 422, and the registry keeps the old model.
	req, _ = http.NewRequest("POST", a.ts.URL+"/v1/cluster/replicate/default", strings.NewReader("{not a model"))
	req.Header.Set(versionHeader, "a=9")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Fatalf("garbage artifact status %d, want 422", resp.StatusCode)
	}
	if got := a.n.Digest()["default"].Version; got != "a=1" {
		t.Fatalf("garbage artifact mutated the replica to %q", got)
	}
}

// TestFaultTransportRuleWindows pins the Nth-call determinism the chaos
// schedules build on: After skips, Count bounds, Heal retires.
func TestFaultTransportRuleWindows(t *testing.T) {
	inner := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: 200, Body: io.NopCloser(strings.NewReader(""))}, nil
	})
	ft := NewFaultTransport(inner, TransportRule{Path: "replicate", After: 1, Count: 2, Mode: Drop})
	do := func(path string) error {
		req := httptest.NewRequest("POST", "http://x"+path, nil)
		resp, err := ft.RoundTrip(req)
		if resp != nil {
			resp.Body.Close()
		}
		return err
	}
	// Non-matching path never fires.
	if err := do("/v1/cluster/digest"); err != nil {
		t.Fatal(err)
	}
	results := []bool{true, false, false, true, true} // pass, drop, drop, pass...
	for i, wantOK := range results {
		err := do("/v1/cluster/replicate/m")
		if (err == nil) != wantOK {
			t.Fatalf("call %d: err=%v, want ok=%v", i+1, err, wantOK)
		}
	}
	if ft.Injected() != 2 {
		t.Fatalf("injected %d, want 2", ft.Injected())
	}
	ft2 := NewFaultTransport(inner, TransportRule{Mode: Drop})
	if err := do("/x"); err != nil {
		t.Fatal(err) // ft, healed-free, unaffected
	}
	req := httptest.NewRequest("GET", "http://x/y", nil)
	if _, err := ft2.RoundTrip(req); err == nil {
		t.Fatal("standing drop rule passed a call")
	}
	ft2.Heal()
	resp, err := ft2.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// roundTripFunc adapts a func to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
