package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	parclass "repro"
	"repro/internal/serve"
)

// Defaults for Config zero fields.
const (
	// DefaultInterval is the anti-entropy period: how often a node pulls
	// peer digests to repair missed pushes.
	DefaultInterval = 2 * time.Second
	// DefaultRequestTimeout bounds every peer HTTP call (push, digest,
	// artifact fetch). A partitioned peer must cost one timeout, not a hang.
	DefaultRequestTimeout = 5 * time.Second
)

// Config configures one cluster node.
type Config struct {
	// ID is this node's stable identity — the version-vector axis it bumps
	// on local publishes. Must be unique across the fleet and survive
	// restarts (reusing an ID after losing its replica store is fine: the
	// node re-converges by anti-entropy before publishing again). It must
	// survive the version vector's wire form, so New rejects an ID holding
	// ',', '=', whitespace, a control character or invalid UTF-8.
	ID string
	// Self is this node's advertised base URL, echoed in /v1/cluster.
	Self string
	// Peers are the other nodes' base URLs (e.g. http://127.0.0.1:8081).
	Peers []string
	// Interval is the anti-entropy period (default DefaultInterval).
	Interval time.Duration
	// Client issues all peer HTTP calls. Tests inject a fault transport
	// here for deterministic partition and crash schedules. Default: a
	// client with DefaultRequestTimeout.
	Client *http.Client
}

// replica is one model's local replication state: the exact artifact
// bytes a peer would receive, the version vector ordering it, and the
// FNV-64a content hash that breaks concurrent-update ties.
type replica struct {
	version Version
	hash    uint64
	raw     []byte
}

// peerState tracks one peer's health as seen from this node.
type peerState struct {
	url string

	mu       sync.Mutex
	ok       bool // last exchange (push or digest pull) succeeded
	lastSeen time.Time
	lastErr  string
	lag      int // models the peer was missing or behind on at last digest exchange
	pushes   int64
	pulls    int64
	errs     int64
}

// Node is the replication agent wrapped around a serve.Server. It owns
// the replica store, pushes local publishes to peers, and runs the
// anti-entropy loop. All mutation of the replica store goes through
// applyLocked, so any interleaving of pushes, pulls and local publishes
// leaves the store a merge of what it has seen.
type Node struct {
	cfg    Config
	srv    *serve.Server
	client *http.Client

	mu       sync.Mutex
	replicas map[string]*replica
	peers    []*peerState

	published atomic.Int64 // local publishes replicated out
	applied   atomic.Int64 // remote artifacts applied locally
	rejected  atomic.Int64 // remote artifacts ignored (dominated or tiebreak loss)

	pushWG sync.WaitGroup // in-flight async pushes (Close waits)
}

// New wires a Node onto srv: local publishes (model uploads and retrain
// swaps) flow through the node to every peer. Replication-applied loads
// deliberately do NOT re-enter the hook — only an origin node fans out an
// update, so an artifact crosses each link once instead of echoing
// forever.
func New(cfg Config, srv *serve.Server) (*Node, error) {
	if err := checkNodeID(cfg.ID); err != nil {
		return nil, fmt.Errorf("cluster: node ID %q %v", cfg.ID, err)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: DefaultRequestTimeout}
	}
	n := &Node{
		cfg:      cfg,
		srv:      srv,
		client:   cfg.Client,
		replicas: make(map[string]*replica),
	}
	for _, u := range cfg.Peers {
		n.peers = append(n.peers, &peerState{url: u})
	}
	srv.SetSwapHook(n.publishLocal)
	return n, nil
}

// hashOf is the content hash used for the concurrent-update tiebreak.
func hashOf(raw []byte) uint64 {
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// Seed registers a boot-time model (e.g. parclassd's -synthetic build) in
// the replica store with the zero version vector, without pushing. A zero
// vector is dominated by any publish, so the first real upload or retrain
// swap anywhere replaces seeds fleet-wide; identically-configured nodes
// seeding the same deterministic build simply agree.
func (n *Node) Seed(name string, m parclass.Predictor) error {
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		return fmt.Errorf("cluster: serializing seed %q: %w", name, err)
	}
	raw := buf.Bytes()
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.replicas[name]; ok {
		return nil
	}
	n.replicas[name] = &replica{version: Version{}, hash: hashOf(raw), raw: raw}
	return nil
}

// publishLocal is the serve.SwapHook: a model was published ON THIS NODE
// (upload or winning retrain). Bump our version-vector axis on top of
// whatever history the replica store holds, record the artifact, and fan
// it out to every peer in the background — swap latency must not be
// coupled to the slowest peer; anti-entropy repairs any push that fails.
func (n *Node) publishLocal(name string, m parclass.Predictor, raw []byte, source string) {
	n.mu.Lock()
	prev := Version{}
	if r := n.replicas[name]; r != nil {
		prev = r.version
	}
	rep := &replica{version: prev.Bump(n.cfg.ID), hash: hashOf(raw), raw: raw}
	n.replicas[name] = rep
	n.mu.Unlock()
	n.published.Add(1)
	for _, p := range n.peers {
		p := p
		n.pushWG.Add(1)
		go func() {
			defer n.pushWG.Done()
			n.pushTo(p, name, rep)
		}()
	}
}

// pushTo sends one replica to one peer.
func (n *Node) pushTo(p *peerState, name string, rep *replica) {
	req, err := http.NewRequest(http.MethodPost, p.url+"/v1/cluster/replicate/"+name, bytes.NewReader(rep.raw))
	if err != nil {
		p.fail(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(versionHeader, rep.version.String())
	req.Header.Set(nodeHeader, n.cfg.ID)
	resp, err := n.client.Do(req)
	if err != nil {
		p.fail(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.fail(fmt.Errorf("replicate %q: peer answered %d", name, resp.StatusCode))
		return
	}
	p.succeed(func(ps *peerState) { ps.pushes++ })
}

// ApplyRemote merges one artifact received from a peer (push or
// anti-entropy fetch) into the replica store and, when it wins, into the
// serving registry. The merge is a join: a dominated update is dropped, a
// dominating one adopted, and a concurrent one resolved by content hash —
// higher FNV-64a wins, with the loser's history merged into the winner's
// vector so the same comparison can never reopen anywhere. Identical
// bytes under concurrent vectors just merge histories.
func (n *Node) ApplyRemote(name string, raw []byte, rv Version) (applied bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	local := n.replicas[name]
	lv := Version{}
	if local != nil {
		lv = local.version
	}
	switch rv.Compare(lv) {
	case Equal, Before:
		n.rejected.Add(1)
		return false, nil
	case After:
		return true, n.adoptLocked(name, raw, rv.Merge(lv))
	default: // Concurrent
		merged := rv.Merge(lv)
		rh := hashOf(raw)
		// local == nil is impossible here: a missing replica has the zero
		// vector, which is never concurrent with anything.
		if rh == local.hash || rh < local.hash {
			// Our bytes win (or the artifacts are identical); keep them but
			// adopt the merged history so the decision dominates both sides.
			local.version = merged
			n.rejected.Add(1)
			return false, nil
		}
		return true, n.adoptLocked(name, raw, merged)
	}
}

// adoptLocked decodes raw and installs it as name's serving model and
// replica, stamped with version. Caller holds n.mu.
func (n *Node) adoptLocked(name string, raw []byte, version Version) error {
	m, err := parclass.ReadModel(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("cluster: decoding replicated %q: %w", name, err)
	}
	// Plain Load: replication-applied models never re-fire the swap hook.
	if _, err := n.srv.Load(name, m, "replicated "+version.String()); err != nil {
		return fmt.Errorf("cluster: loading replicated %q: %w", name, err)
	}
	n.replicas[name] = &replica{version: version, hash: hashOf(raw), raw: raw}
	n.applied.Add(1)
	return nil
}

// artifact returns name's raw bytes and version for the artifact route.
func (n *Node) artifact(name string) (raw []byte, version Version, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.replicas[name]
	if r == nil {
		return nil, nil, false
	}
	return r.raw, r.version.Clone(), true
}

// DigestEntry is one model's line in the digest exchanged by
// anti-entropy: enough to decide whether a transfer is needed, without
// the artifact bytes.
type DigestEntry struct {
	Version string `json:"version"`
	Hash    string `json:"hash"`
	Bytes   int    `json:"bytes"`
}

// Digest summarizes the local replica store.
func (n *Node) Digest() map[string]DigestEntry {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]DigestEntry, len(n.replicas))
	for name, r := range n.replicas {
		out[name] = DigestEntry{
			Version: r.version.String(),
			Hash:    fmt.Sprintf("%016x", r.hash),
			Bytes:   len(r.raw),
		}
	}
	return out
}

// SyncOnce runs one anti-entropy round against every peer: pull the
// peer's digest, fetch and merge any model whose vector we do not
// dominate, and record how far the peer trails us (its pull problem, our
// lag metric). Errors mark the peer down and move on — a dead peer costs
// one timeout per round, and convergence resumes the round it returns.
func (n *Node) SyncOnce() {
	for _, p := range n.peers {
		n.syncPeer(p)
	}
}

// syncPeer is one peer's anti-entropy exchange.
func (n *Node) syncPeer(p *peerState) {
	var digest map[string]DigestEntry
	if err := n.getJSON(p.url+"/v1/cluster/digest", &digest); err != nil {
		p.fail(err)
		return
	}
	lag := 0
	for name, ent := range digest {
		rv, err := ParseVersion(ent.Version)
		if err != nil {
			p.fail(fmt.Errorf("digest %q: %v", name, err))
			return
		}
		n.mu.Lock()
		lv := Version{}
		if r := n.replicas[name]; r != nil {
			lv = r.version
		}
		n.mu.Unlock()
		switch lv.Compare(rv) {
		case After:
			lag++ // peer is behind us; it will pull on its own round
		case Before, Concurrent:
			if err := n.fetchFrom(p, name); err != nil {
				p.fail(err)
				return
			}
		}
	}
	// Models the peer lacks entirely also count toward its lag.
	n.mu.Lock()
	for name := range n.replicas {
		if _, ok := digest[name]; !ok {
			lag++
		}
	}
	n.mu.Unlock()
	p.succeed(func(ps *peerState) { ps.lag = lag })
}

// fetchFrom pulls one artifact from a peer and merges it.
func (n *Node) fetchFrom(p *peerState, name string) error {
	resp, err := n.client.Get(p.url + "/v1/cluster/artifact/" + name)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("artifact %q: peer answered %d", name, resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	rv, err := ParseVersion(resp.Header.Get(versionHeader))
	if err != nil {
		return err
	}
	if _, err := n.ApplyRemote(name, raw, rv); err != nil {
		return err
	}
	p.succeed(func(ps *peerState) { ps.pulls++ })
	return nil
}

// getJSON fetches url into out with the node's client.
func (n *Node) getJSON(url string, out any) error {
	resp, err := n.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return decodeJSON(resp.Body, out)
}

// Start launches the anti-entropy loop; the returned stop function halts
// it and waits for in-flight pushes.
func (n *Node) Start() (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(n.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				n.SyncOnce()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		n.pushWG.Wait()
	}
}

// fail records a failed exchange with the peer.
func (p *peerState) fail(err error) {
	p.mu.Lock()
	p.ok = false
	p.lastErr = err.Error()
	p.errs++
	p.mu.Unlock()
}

// succeed records a successful exchange, then applies upd under the lock.
func (p *peerState) succeed(upd func(*peerState)) {
	p.mu.Lock()
	p.ok = true
	p.lastErr = ""
	p.lastSeen = time.Now()
	if upd != nil {
		upd(p)
	}
	p.mu.Unlock()
}

// PeerStatus is one peer's row in the /v1/cluster document.
type PeerStatus struct {
	URL  string `json:"url"`
	Live bool   `json:"live"`
	// LastSeen is the last successful exchange (push or digest pull).
	LastSeen  time.Time `json:"last_seen,omitzero"`
	LastError string    `json:"last_error,omitempty"`
	// Lag is how many models the peer was missing or trailing on at the
	// last digest exchange (0 = converged as of then).
	Lag    int   `json:"lag"`
	Pushes int64 `json:"pushes"`
	Pulls  int64 `json:"pulls"`
	Errors int64 `json:"errors"`
}

// Status is the GET /v1/cluster document.
type Status struct {
	ID             string                 `json:"id"`
	Self           string                 `json:"self,omitempty"`
	Models         map[string]DigestEntry `json:"models"`
	Peers          []PeerStatus           `json:"peers"`
	PublishedLocal int64                  `json:"published_local"`
	AppliedRemote  int64                  `json:"applied_remote"`
	RejectedRemote int64                  `json:"rejected_remote"`
}

// Status snapshots the node for /v1/cluster.
func (n *Node) Status() Status {
	st := Status{
		ID:             n.cfg.ID,
		Self:           n.cfg.Self,
		Models:         n.Digest(),
		PublishedLocal: n.published.Load(),
		AppliedRemote:  n.applied.Load(),
		RejectedRemote: n.rejected.Load(),
	}
	for _, p := range n.peers {
		p.mu.Lock()
		st.Peers = append(st.Peers, PeerStatus{
			URL: p.url, Live: p.ok, LastSeen: p.lastSeen, LastError: p.lastErr,
			Lag: p.lag, Pushes: p.pushes, Pulls: p.pulls, Errors: p.errs,
		})
		p.mu.Unlock()
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].URL < st.Peers[j].URL })
	return st
}
