package main

// Per-layer attribution from outside the program: wrappers around the
// transport clients handed to the service clients and the gateway,
// around each daemon's mux (via Mux.Dispatch), and around each
// daemon's identity resolver. Each records a span per call while
// tracing is on; the spans of one request share its request ID.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"proxykit/internal/kcrypto"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

// Span kinds, outermost first.
const (
	kindOp       = "op"
	kindCall     = "transport.call"
	kindDispatch = "dispatch"
	kindResolve  = "resolve"
)

type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	RID    string        `json:"rid"`
	Kind   string        `json:"kind"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"durNs"`
	Req    int           `json:"reqBytes,omitempty"`
	Resp   int           `json:"respBytes,omitempty"`
	Err    string        `json:"err,omitempty"`
	gw     bool          // a call made by the gateway
}

// sealedMethods are the methods whose requests travel in signed
// envelopes; their captured bodies feed the seal/open probes.
var sealedMethods = map[string]bool{
	svc.RequestMethod: true, svc.TransferMethod: true, svc.BalanceMethod: true,
	svc.DepositCheckMethod: true, svc.GrantMethod: true, svc.GroupGrantMethod: true,
}

// maxCaptured bounds the envelopes kept per method for the probes.
const maxCaptured = 64

type layers struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu       sync.Mutex
	spans    []span
	aliases  map[string]string   // gateway trace ID -> request ID
	captured map[string][][]byte // method -> sealed request envelopes

	// dispatching maps a handler goroutine to its dispatch span, so a
	// resolver call made inside the handler can name its parent.
	dispatching sync.Map // goroutine id -> dispatchRef
}

type dispatchRef struct {
	id  int64
	rid string
}

func newLayers() *layers {
	return &layers{aliases: map[string]string{}, captured: map[string][][]byte{}}
}

func (l *layers) record(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the recorded spans and clears the log.
func (l *layers) take() ([]span, map[string]string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, a := l.spans, l.aliases
	l.spans, l.aliases = nil, map[string]string{}
	return s, a
}

func (l *layers) alias(gatewayTrace, rid string) {
	if gatewayTrace == "" {
		return
	}
	l.mu.Lock()
	l.aliases[gatewayTrace] = rid
	l.mu.Unlock()
}

// goid returns the calling goroutine's ID, parsed from its stack
// header ("goroutine 123 [running]:"). It costs about a microsecond,
// which the tracing overhead includes.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// tclient times the calls a client makes. A client bound to a request
// ID carries that ID downstream in place of any trace its caller
// minted; an unbound one (the gateway's) keeps its caller's trace.
type tclient struct {
	l     *layers
	name  string
	inner transport.TraceClient
	rid   string
}

func (l *layers) wrapClient(name string, c transport.TraceClient) transport.Client {
	return &tclient{l: l, name: name, inner: c}
}

// bind returns c bound to rid when c is a tracing wrapper.
func (l *layers) bind(c transport.Client, rid string) transport.Client {
	t, ok := c.(*tclient)
	if !ok {
		return c
	}
	b := *t
	b.rid = rid
	return &b
}

func (t *tclient) Call(method string, body []byte) ([]byte, error) {
	return t.CallTrace(obs.Trace{}, method, body)
}

func (t *tclient) CallTrace(parent obs.Trace, method string, body []byte) ([]byte, error) {
	if t.rid != "" {
		parent.TraceID = t.rid
		if parent.SpanID == "" {
			parent.SpanID = t.rid
		}
	}
	if !t.l.on.Load() {
		return t.inner.CallTrace(parent, method, body)
	}
	if parent.TraceID == "" {
		parent = obs.NewTrace()
	}
	start := time.Now()
	resp, err := t.inner.CallTrace(parent, method, body)
	s := span{
		ID: t.l.nextID.Add(1), RID: parent.TraceID, Kind: kindCall, Name: t.name + " " + method,
		Start: start, Dur: time.Since(start), Req: len(body), Resp: len(resp),
		gw: strings.HasPrefix(t.name, "gw."),
	}
	if err != nil {
		s.Err = err.Error()
	}
	t.l.record(s)
	if sealedMethods[method] {
		t.l.mu.Lock()
		if len(t.l.captured[method]) < maxCaptured {
			t.l.captured[method] = append(t.l.captured[method], append([]byte(nil), body...))
		}
		t.l.mu.Unlock()
	}
	return resp, err
}

// wrapMux returns a mux serving methods by timing inner.Dispatch.
func (l *layers) wrapMux(daemon string, inner *transport.Mux, methods []string) *transport.Mux {
	outer := transport.NewMux()
	for _, m := range methods {
		m := m
		outer.Handle(m, func(ctx context.Context, body []byte) ([]byte, error) {
			if !l.on.Load() {
				return inner.Dispatch(ctx, m, body)
			}
			ref := dispatchRef{id: l.nextID.Add(1), rid: obs.TraceIDFrom(ctx)}
			g := goid()
			l.dispatching.Store(g, ref)
			start := time.Now()
			resp, err := inner.Dispatch(ctx, m, body)
			dur := time.Since(start)
			l.dispatching.Delete(g)
			s := span{ID: ref.id, RID: ref.rid, Kind: kindDispatch, Name: daemon + " " + m, Start: start, Dur: dur}
			if err != nil {
				s.Err = err.Error()
			}
			l.record(s)
			return resp, err
		})
	}
	return outer
}

// wrapResolver times a daemon's identity lookups.
func (l *layers) wrapResolver(daemon string, inner func(principal.ID) (kcrypto.Verifier, error)) func(principal.ID) (kcrypto.Verifier, error) {
	return func(id principal.ID) (kcrypto.Verifier, error) {
		if !l.on.Load() {
			return inner(id)
		}
		start := time.Now()
		v, err := inner(id)
		s := span{ID: l.nextID.Add(1), Kind: kindResolve, Name: daemon, Start: start, Dur: time.Since(start)}
		if ref, ok := l.dispatching.Load(goid()); ok {
			s.Parent, s.RID = ref.(dispatchRef).id, ref.(dispatchRef).rid
		}
		if err != nil {
			s.Err = err.Error()
		}
		l.record(s)
		return v, err
	}
}

// attribution is the traced window's split of op time by layer.
type attribution struct {
	ops       int
	self      map[string]time.Duration // kind -> self time over all ops
	calls     []span                   // calls made on behalf of ops
	overhead  []time.Duration          // call minus its dispatch, per matched call
	dispatch  []span                   // dispatches of ops' calls
	resolves  int                      // resolver calls inside dispatches of ops
	resolveNs time.Duration
	spans     int
}

// link joins spans into request trees and computes self times: a
// span's duration minus the time its child spans cover. Calls belong
// to the op with their request ID (gateway traces are joined through
// X-Trace-Id); a dispatch belongs to the call of the same request and
// method whose interval contains it; resolves name their dispatch.
// Background traffic (replication pulls) belongs to no op.
func link(spans []span, aliases map[string]string) *attribution {
	a := &attribution{self: map[string]time.Duration{}}
	type tree struct {
		op         *span
		calls      []*span
		dispatches []*span
	}
	trees := map[string]*tree{}
	get := func(rid string) *tree {
		if r, ok := aliases[rid]; ok {
			rid = r
		}
		t := trees[rid]
		if t == nil {
			t = &tree{}
			trees[rid] = t
		}
		return t
	}
	children := map[int64]time.Duration{} // dispatch id -> resolve time inside it
	resolvesIn := map[int64]int{}
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kindOp:
			get(s.RID).op = s
		case kindCall:
			get(s.RID).calls = append(get(s.RID).calls, s)
		case kindDispatch:
			get(s.RID).dispatches = append(get(s.RID).dispatches, s)
		case kindResolve:
			if s.Parent != 0 {
				children[s.Parent] += s.Dur
				resolvesIn[s.Parent]++
			}
		}
	}
	for _, t := range trees {
		if t.op == nil {
			continue
		}
		a.ops++
		self := t.op.Dur
		for _, c := range t.calls {
			self -= c.Dur
			a.calls = append(a.calls, *c)
			callSelf := c.Dur
			method := c.Name[strings.IndexByte(c.Name, ' ')+1:]
			for _, d := range t.dispatches {
				if d.Parent != 0 || !strings.HasSuffix(d.Name, " "+method) ||
					d.Start.Before(c.Start) || d.Start.Add(d.Dur).After(c.Start.Add(c.Dur)) {
					continue
				}
				d.Parent = c.ID
				callSelf -= d.Dur
				a.overhead = append(a.overhead, c.Dur-d.Dur)
				a.dispatch = append(a.dispatch, *d)
				a.self[kindDispatch] += d.Dur - children[d.ID]
				a.self[kindResolve] += children[d.ID]
				a.resolves += resolvesIn[d.ID]
				a.resolveNs += children[d.ID]
				break
			}
			a.self[kindCall] += callSelf
		}
		a.self[kindOp] += self
	}
	a.spans = len(spans)
	return a
}

// writeSpans writes spans as JSON lines, with each span's request ID
// resolved through the gateway aliases.
func writeSpans(path string, spans []span, aliases map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	for _, s := range sorted {
		if r, ok := aliases[s.RID]; ok {
			s.RID = r
		}
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func ridFor(i int) string { return fmt.Sprintf("r%08x", i) }
