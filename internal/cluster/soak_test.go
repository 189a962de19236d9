package cluster

// The `make cluster-soak` workload: a 3-node in-process fleet on real TCP
// listeners, sustained open-loop fleet traffic routed by internal/loadtest,
// one node hard-killed mid-run and restarted on the same port, a model
// published while it is down. The load stays below the admission cap, so
// the soak sheds nothing (it logs shed=0) and does not test overload or
// clients' Retry-After backoff. Acceptance, under -race:
//
//   - zero 5xx on admitted requests (a 429 would be the designed
//     overload answer, transport failures to the dead node are failovers);
//   - the restarted node converges to the model it missed, by pull-based
//     anti-entropy alone.
//
// Real listeners (not httptest) because the restart must reclaim the SAME
// address — the part a slot-in replacement process has to get right. The
// nodes are in-process, but they run the same cluster.Node and serve code
// a parclassd process runs. The test logs how long the restarted node took
// to converge and fails if it takes 5s or more.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	parclass "repro"
	"repro/internal/loadtest"
	"repro/internal/serve"
)

// soakNode is one fleet member whose process lifecycle the test controls.
type soakNode struct {
	id    string
	addr  string // fixed for the node's lifetime, across restarts
	peers []string

	mu   sync.Mutex
	srv  *http.Server
	node *Node
	stop func() // anti-entropy loop
}

// start boots (or reboots) the node on its address with a fresh registry
// and replica store — a crash loses everything but identity, the way a
// restarted stateless serving pod would. The shared deterministic boot
// model is loaded and seeded (zero vector), so any real publish anywhere
// dominates it.
func (sn *soakNode) start(t testing.TB, boot *parclass.Model) {
	t.Helper()
	s := serve.New("")
	n, err := New(Config{
		ID: sn.id, Self: "http://" + sn.addr, Peers: sn.peers,
		Interval: 50 * time.Millisecond,
		Client:   &http.Client{Timeout: 2 * time.Second},
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("default", boot, "boot"); err != nil {
		t.Fatal(err)
	}
	if err := n.Seed("default", boot); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableBatching(serve.BatchConfig{QueueDepth: 64}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", sn.addr)
	if err != nil {
		t.Fatalf("node %s: re-listen on %s: %v", sn.id, sn.addr, err)
	}
	srv := &http.Server{Handler: n.Handler()}
	go srv.Serve(ln)
	sn.mu.Lock()
	sn.srv, sn.node, sn.stop = srv, n, n.Start()
	sn.mu.Unlock()
}

// kill hard-stops the node: listener and all conns closed, loops halted.
func (sn *soakNode) kill() {
	sn.mu.Lock()
	srv, stop := sn.srv, sn.stop
	sn.srv, sn.stop = nil, nil
	sn.mu.Unlock()
	if stop != nil {
		stop()
	}
	if srv != nil {
		srv.Close()
	}
}

// current returns the node's live replication agent.
func (sn *soakNode) current() *Node {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.node
}

func TestClusterSoakKillRestart(t *testing.T) {
	boot := trainTree(t, 1, 2000)

	// Fix three addresses up front; peers reference them across restarts.
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	nodes := make([]*soakNode, 3)
	for i := range nodes {
		sn := &soakNode{id: fmt.Sprintf("%c", 'a'+i), addr: addrs[i]}
		for j, a := range addrs {
			if j != i {
				sn.peers = append(sn.peers, "http://"+a)
			}
		}
		sn.start(t, boot)
		t.Cleanup(sn.kill)
		nodes[i] = sn
	}
	a, b, c := nodes[0], nodes[1], nodes[2]
	urls := []string{"http://" + a.addr, "http://" + b.addr, "http://" + c.addr}

	// Sustained open-loop fleet traffic for the whole scenario: 300 req/s
	// of 4-row predicts, which three nodes serve without reaching the cap.
	loadDone := make(chan struct{})
	var res *loadtest.Result
	var loadErr error
	go func() {
		defer close(loadDone)
		res, loadErr = loadtest.Run(loadtest.Config{
			BaseURLs:    urls,
			Batch:       4,
			Positional:  true,
			ArrivalRate: 300,
			Duration:    2500 * time.Millisecond,
			Seed:        11,
		})
	}()

	// Mid-run: hard-kill b, then publish a new model to a while b is down.
	time.Sleep(400 * time.Millisecond)
	b.kill()
	time.Sleep(200 * time.Millisecond)
	raw := envelope(t, trainTree(t, 7, 2000))
	resp, err := http.Post(urls[0]+"/v1/models/default", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload during outage: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return c.current().Digest()["default"].Version == "a=1" })

	// Restart b on the same port; anti-entropy must converge it without
	// any help from the origin's (long-gone) push.
	time.Sleep(200 * time.Millisecond)
	restarted := time.Now()
	b.start(t, boot)
	waitFor(t, func() bool {
		d := b.current().Digest()["default"]
		return d.Version == "a=1" && d.Hash == fmt.Sprintf("%016x", hashOf(raw))
	})
	converge := time.Since(restarted)

	<-loadDone
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if res.FiveXX != 0 {
		t.Fatalf("%d admitted requests got 5xx during kill/restart (ok=%d shed=%d errors=%d retries=%d)",
			res.FiveXX, res.OK, res.Shed, res.Errors, res.Retries)
	}
	if res.OK == 0 {
		t.Fatal("no successful requests during soak")
	}
	t.Logf("soak: ok=%d shed=%d errors=%d (5xx=%d) retries=%d rows=%d converge=%v",
		res.OK, res.Shed, res.Errors, res.FiveXX, res.Retries, res.Rows, converge.Round(time.Millisecond))
	if converge >= 5*time.Second {
		t.Fatalf("restarted node converged %v after its start, want under 5s", converge)
	}

	// Whole fleet converged: same version, same artifact hash everywhere.
	want := fmt.Sprintf("%016x", hashOf(raw))
	for _, sn := range nodes {
		d := sn.current().Digest()["default"]
		if d.Version != "a=1" || d.Hash != want {
			t.Fatalf("node %s digest %+v, want version a=1 hash %s", sn.id, d, want)
		}
	}
}
