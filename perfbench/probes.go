package main

// Layer probes: after the traced window, direct calls to the layers'
// public functions on the workload's own inputs (its envelopes,
// proxies and accounts), each timed on its own.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"proxykit/internal/endserver"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/restrict"
	"proxykit/internal/statefile"
	"proxykit/internal/svc"
)

// probeSamples is how many timed calls each probe makes.
const probeSamples = 200

type probeResult struct {
	us  map[string]float64 // probe name -> median microseconds
	err error
}

// timed runs fn n times and returns the median duration.
func timed(n int, fn func(i int) error) (time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start))
	}
	return percentile(sortedDurations(ds), 0.5), nil
}

func (d *deployment) probe(seed int64, captured map[string][][]byte) probeResult {
	res := probeResult{us: map[string]float64{}}
	rng := rand.New(rand.NewSource(seed))
	resolve := statefile.DynamicResolver(d.state)
	idents := map[principal.ID]*sim{}
	for _, s := range d.sims {
		idents[s.ident.ID] = s
	}
	step := func(name string, n int, fn func(i int) error) bool {
		if res.err != nil {
			return false
		}
		med, err := timed(n, fn)
		if err != nil {
			res.err = fmt.Errorf("probe %s: %w", name, err)
			return false
		}
		res.us[name] = us(med)
		return true
	}

	// Envelopes: open each captured request with a fresh opener (an
	// opener refuses a replayed nonce), then re-seal its body.
	type envelope struct {
		method string
		raw    []byte
	}
	var envs []envelope
	for m, raws := range captured {
		for _, raw := range raws {
			envs = append(envs, envelope{m, raw})
		}
	}
	if len(envs) == 0 {
		res.err = fmt.Errorf("probe: no sealed requests captured")
		return res
	}
	openers := make([]*svc.Opener, probeSamples)
	for i := range openers {
		openers[i] = svc.NewOpener(resolve, nil)
	}
	froms := make([]principal.ID, probeSamples)
	bodies := make([][]byte, probeSamples)
	step("svc.open_us", probeSamples, func(i int) error {
		e := envs[i%len(envs)]
		from, body, err := openers[i].Open(e.method, e.raw)
		froms[i], bodies[i] = from, body
		return err
	})
	step("svc.seal_us", probeSamples, func(i int) error {
		s := idents[froms[i]]
		if s == nil {
			return fmt.Errorf("no identity for %s", froms[i])
		}
		_, err := svc.Seal(s.ident, envs[i%len(envs)].method, bodies[i], nil)
		return err
	})

	// Proxy chains: the workload's own principals, uniformly.
	holders := d.wl.cascadeHolders()
	pick := make([]*sim, probeSamples)
	for i := range pick {
		pick[i] = d.sims[rng.Intn(holders)]
	}
	cold := &proxy.VerifyEnv{Server: d.fileID, ResolveIdentity: resolve}
	warm := &proxy.VerifyEnv{Server: d.fileID, ResolveIdentity: resolve, Cache: proxy.NewChainCache(proxy.DefaultChainCacheSize)}
	verified := make([]*proxy.Verified, probeSamples)
	step("proxy.verify_miss_us", probeSamples, func(i int) error {
		v, err := cold.VerifyPresentation(pick[i].authz.PresentDelegate(), nil)
		verified[i] = v
		return err
	})
	for _, s := range pick {
		if _, err := warm.VerifyPresentation(s.authz.PresentDelegate(), nil); err != nil && res.err == nil {
			res.err = fmt.Errorf("probe proxy.verify_hit_us: warm: %w", err)
		}
	}
	step("proxy.verify_hit_us", probeSamples, func(i int) error {
		_, err := warm.VerifyPresentation(pick[i].authz.PresentDelegate(), nil)
		return err
	})
	step("restrict.eval_us", probeSamples, func(i int) error {
		return verified[i].Authorize(&restrict.Context{
			Server: d.fileID, Object: object, Operation: "read",
			ClientIdentities: []principal.ID{pick[i].ident.ID},
			Now:              time.Now(), AcceptOnce: d.end.Registry(),
		})
	})
	step("endserver.authorize_us", probeSamples, func(i int) error {
		_, err := d.end.AuthorizeCtx(context.Background(), &endserver.Request{
			Object: object, Op: "read", Identities: []principal.ID{pick[i].ident.ID},
			Proxies: []*proxy.Presentation{pick[i].authz.PresentDelegate()},
		})
		return err
	})

	// Accounts: one-dollar transfers between random account holders,
	// and balance reads.
	accts := d.wl.accountHolders()
	step("accounting.transfer_us", probeSamples, func(int) error {
		a := rng.Intn(accts)
		b := (a + 1 + rng.Intn(accts-1)) % accts
		from, to := d.sims[a], d.sims[b]
		return d.bank.Transfer(from.acct, to.acct, currency, 1, []principal.ID{from.ident.ID})
	})
	step("accounting.balance_us", probeSamples, func(int) error {
		s := d.sims[rng.Intn(accts)]
		_, err := d.bank.Balance(s.acct, currency, []principal.ID{s.ident.ID})
		return err
	})
	step("ledger.snapshot_us", 3, func(int) error { return d.bank.SnapshotNow() })

	// The gateway's handler, called in process on the probe holders
	// after one untimed request each has filled their proxy cache.
	h := d.gw.Handler()
	serve := func(s *sim) error {
		req := httptest.NewRequest("POST", "/v1/authorize", bytes.NewReader(gatewayBody))
		req.Header.Set("Authorization", "Bearer "+s.token)
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("gateway authorize: %d %s", w.Code, w.Body.String())
		}
		return nil
	}
	n := min(probeHolders, holders)
	for i := 0; i < n; i++ {
		if err := serve(d.sims[i]); err != nil && res.err == nil {
			res.err = fmt.Errorf("probe gateway.http_us: warm: %w", err)
		}
	}
	step("gateway.http_us", probeSamples, func(i int) error { return serve(d.sims[i%n]) })
	return res
}
