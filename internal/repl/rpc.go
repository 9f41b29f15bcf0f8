package repl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"proxykit/internal/ledger"
	"proxykit/internal/transport"
	"proxykit/internal/wire"
)

// Replication RPC methods, mounted on the owning daemon's mux alongside
// its service methods. Bodies are wire-codec binary: shipping rides the
// transfer hot path's transport, so it uses the hot path's encoder.
const (
	MethodStatus   = "repl.status"
	MethodPull     = "repl.pull"
	MethodSnapshot = "repl.snapshot"
	MethodFence    = "repl.fence"
	MethodPromote  = "repl.promote"
)

// PullResult is one answered pull: either a record batch or a
// snapshot-needed redirect, plus the primary's horizons and term.
type PullResult struct {
	Term         uint64
	NeedSnapshot bool
	SnapSeq      uint64
	LastSeq      uint64
	Entries      []ledger.Entry
}

// Mount registers the node's replication handlers on m.
func (n *Node) Mount(m *transport.Mux) {
	m.Handle(MethodStatus, n.handleStatus)
	m.Handle(MethodPull, n.handlePull)
	m.Handle(MethodSnapshot, n.handleSnapshot)
	m.Handle(MethodFence, n.handleFence)
	m.Handle(MethodPromote, n.handlePromote)
}

func (n *Node) handleStatus(ctx context.Context, body []byte) ([]byte, error) {
	st := n.Status()
	e := wire.GetEncoder(32)
	defer e.Release()
	e.Uint64(st.Term)
	e.Uint8(uint8(st.Role))
	e.Uint64(st.LastSeq)
	e.Uint64(st.SnapSeq)
	return append([]byte(nil), e.Bytes()...), nil
}

// checkServing refuses replication reads (pull, snapshot) on nodes that
// must not ship history: standbys (chained replication is unsupported)
// and deposed primaries (their tail may contain unfenced writes).
func (n *Node) checkServing(reqTerm uint64, carriesTerm bool) error {
	n.mu.Lock()
	role, term := n.role, n.term
	n.mu.Unlock()
	if carriesTerm && reqTerm > term {
		// The puller has seen a newer term than we have: we were deposed
		// and are only finding out now.
		if _, err := n.adoptTerm(reqTerm); err != nil {
			return err
		}
		mFencingRejections.Inc()
		return fmt.Errorf("%w: puller term %d exceeds local term %d", ErrFenced, reqTerm, term)
	}
	switch role {
	case RoleDeposed:
		mFencingRejections.Inc()
		return fmt.Errorf("%w: local term %d", ErrFenced, term)
	case RoleStandby:
		return errors.New("repl: cannot ship from a standby")
	}
	if carriesTerm && reqTerm < term {
		mFencingRejections.Inc()
		return fmt.Errorf("repl: stale puller term %d (current term %d)", reqTerm, term)
	}
	return nil
}

func (n *Node) handlePull(ctx context.Context, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	reqTerm := d.Uint64()
	from := d.Uint64()
	max := int(d.Uint32())
	waitMs := d.Uint32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("repl: pull request: %w", err)
	}
	if err := n.checkServing(reqTerm, true); err != nil {
		return nil, err
	}
	n.observeAck(from)

	deadline := time.Now().Add(time.Duration(waitMs) * time.Millisecond)
	var res ledger.CursorResult
	needSnapshot := false
	for {
		// Grab the pulse channel before reading so an append landing
		// between the read and the wait still wakes us.
		n.mu.Lock()
		notify := n.notify
		n.mu.Unlock()
		var err error
		res, err = n.lg.ReadEntries(from, max)
		if err != nil {
			if !errors.Is(err, ledger.ErrTruncated) {
				return nil, err
			}
			needSnapshot = true
			break
		}
		if len(res.Entries) > 0 {
			break
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break // caught up: an empty response is the answer
		}
		t := time.NewTimer(remaining)
		select {
		case <-notify:
			t.Stop()
		case <-t.C:
		}
	}

	out := &PullResult{
		Term:         n.Term(),
		NeedSnapshot: needSnapshot,
		SnapSeq:      res.SnapSeq,
		LastSeq:      res.LastSeq,
	}
	if !needSnapshot {
		out.Entries = res.Entries
		if len(res.Entries) > 0 {
			mShippedBatches.Inc()
			mShippedRecords.Add(uint64(len(res.Entries)))
		}
	}
	e := wire.GetEncoder(64)
	defer e.Release()
	encodePullResult(e, out)
	return append([]byte(nil), e.Bytes()...), nil
}

// encodePullResult writes a repl.pull response. A snapshot redirect
// carries no entries.
func encodePullResult(e *wire.Encoder, r *PullResult) {
	e.Uint64(r.Term)
	e.Bool(r.NeedSnapshot)
	e.Uint64(r.SnapSeq)
	e.Uint64(r.LastSeq)
	if r.NeedSnapshot {
		e.Uint32(0)
		return
	}
	e.Uint32(uint32(len(r.Entries)))
	for _, ent := range r.Entries {
		e.Uint64(ent.Seq)
		e.Bytes32(ent.Data)
	}
}

// pullEntryMinLen is the smallest encoding of one shipped entry: its
// sequence number and an empty data field's length prefix.
const pullEntryMinLen = 8 + 4

// decodePullResult parses a repl.pull response, accepting exactly the
// encodings encodePullResult produces. The response comes from the
// network, so its entry count is not trusted for allocation: the
// entries slice is sized by what the remaining bytes can hold.
func decodePullResult(raw []byte) (*PullResult, error) {
	d := wire.NewDecoder(raw)
	res := &PullResult{}
	res.Term = d.Uint64()
	flag := d.Uint8()
	res.SnapSeq = d.Uint64()
	res.LastSeq = d.Uint64()
	count := d.Uint32()
	if d.Err() == nil {
		switch {
		case flag > 1:
			return nil, fmt.Errorf("repl: pull response: need-snapshot flag %d", flag)
		case flag == 1 && count != 0:
			return nil, fmt.Errorf("repl: pull response: snapshot redirect carrying %d entries", count)
		}
	}
	res.NeedSnapshot = flag == 1
	if n := min(int(count), d.Remaining()/pullEntryMinLen); n > 0 {
		res.Entries = make([]ledger.Entry, 0, n)
	}
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		seq := d.Uint64()
		data := d.Bytes32()
		res.Entries = append(res.Entries, ledger.Entry{Seq: seq, Data: data})
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("repl: pull response: %w", err)
	}
	return res, nil
}

func (n *Node) handleSnapshot(ctx context.Context, body []byte) ([]byte, error) {
	if err := n.checkServing(0, false); err != nil {
		return nil, err
	}
	state, seq, err := n.sm.SnapshotState()
	if err != nil {
		return nil, fmt.Errorf("repl: capture snapshot: %w", err)
	}
	e := wire.GetEncoder(32 + len(state))
	defer e.Release()
	e.Uint64(n.Term())
	e.Uint64(seq)
	e.Bytes32(state)
	return append([]byte(nil), e.Bytes()...), nil
}

func (n *Node) handleFence(ctx context.Context, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	term := d.Uint64()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("repl: fence request: %w", err)
	}
	cur, err := n.Fence(term)
	if err != nil {
		return nil, err
	}
	e := wire.GetEncoder(8)
	defer e.Release()
	e.Uint64(cur)
	return append([]byte(nil), e.Bytes()...), nil
}

func (n *Node) handlePromote(ctx context.Context, body []byte) ([]byte, error) {
	term, err := n.Promote()
	if err != nil {
		return nil, err
	}
	e := wire.GetEncoder(8)
	defer e.Release()
	e.Uint64(term)
	return append([]byte(nil), e.Bytes()...), nil
}

// Client issues replication RPCs to a node.
type Client struct {
	c transport.Client
}

// NewClient wraps a transport client (in-memory or TCP) for the repl
// methods.
func NewClient(c transport.Client) *Client { return &Client{c: c} }

// Status fetches the remote node's role, term, and horizons.
func (c *Client) Status() (Status, error) {
	raw, err := c.c.Call(MethodStatus, nil)
	if err != nil {
		return Status{}, err
	}
	d := wire.NewDecoder(raw)
	st := Status{}
	st.Term = d.Uint64()
	st.Role = Role(d.Uint8())
	st.LastSeq = d.Uint64()
	st.SnapSeq = d.Uint64()
	if err := d.Finish(); err != nil {
		return Status{}, fmt.Errorf("repl: status response: %w", err)
	}
	return st, nil
}

// Pull requests up to max records from sequence from, holding the
// request open up to wait when the primary is caught up. term is the
// puller's view of the primary's fencing term.
func (c *Client) Pull(term, from uint64, max int, wait time.Duration) (*PullResult, error) {
	e := wire.GetEncoder(32)
	e.Uint64(term)
	e.Uint64(from)
	e.Uint32(uint32(max))
	e.Uint32(uint32(wait / time.Millisecond))
	raw, err := c.c.Call(MethodPull, e.Bytes())
	e.Release()
	if err != nil {
		return nil, err
	}
	return decodePullResult(raw)
}

// Snapshot fetches a full state snapshot from the primary.
func (c *Client) Snapshot() (state []byte, seq uint64, term uint64, err error) {
	raw, err := c.c.Call(MethodSnapshot, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	d := wire.NewDecoder(raw)
	term = d.Uint64()
	seq = d.Uint64()
	state = d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, 0, 0, fmt.Errorf("repl: snapshot response: %w", err)
	}
	return state, seq, term, nil
}

// Fence delivers term to the remote node, deposing it if the term is
// higher than its own. Returns the remote's resulting term.
func (c *Client) Fence(term uint64) (uint64, error) {
	e := wire.GetEncoder(8)
	e.Uint64(term)
	raw, err := c.c.Call(MethodFence, e.Bytes())
	e.Release()
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(raw)
	cur := d.Uint64()
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("repl: fence response: %w", err)
	}
	return cur, nil
}

// Promote asks the remote standby to fail over to primary; returns its
// new fencing term.
func (c *Client) Promote() (uint64, error) {
	raw, err := c.c.Call(MethodPromote, nil)
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(raw)
	term := d.Uint64()
	if err := d.Finish(); err != nil {
		return 0, fmt.Errorf("repl: promote response: %w", err)
	}
	return term, nil
}
