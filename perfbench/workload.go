package main

// The three workloads, their seeded open-loop arrival schedules, and
// the operations an arrival performs.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
)

// The operations, in report order.
const (
	opAuthorize = iota
	opTransfer
	opBalance
	opDeposit
	opGateway
	numOps
)

var opNames = [numOps]string{"authorize", "transfer", "balance", "deposit", "gateway"}

// workload is one traffic mix against one deployment shape.
type workload struct {
	name       string
	principals int     // identities provisioned
	cascades   bool    // every principal holds a cascaded proxy
	accounts   bool    // every principal owns an account
	standby    bool    // the bank has a semi-synchronous hot standby
	rate       float64 // offered arrivals per second
	setups     int     // set-ups per untraced run; setup_s is their median
	mix        [numOps]float64
}

// workloads are the benchmark's traffic mixes. Why each exists, and
// which layers it is meant to load, is recorded in catalogue.json and
// README.md.
var workloads = []*workload{
	{
		name: "authz", principals: 2048, cascades: true, rate: 800, setups: 3,
		mix: [numOps]float64{opAuthorize: 1},
	},
	{
		name: "payments", principals: 1024, accounts: true, rate: 1000, setups: 3,
		mix: [numOps]float64{opTransfer: 0.8, opBalance: 0.2},
	},
	{
		name: "mixed", principals: 256, cascades: true, accounts: true, standby: true, rate: 480, setups: 5,
		mix: [numOps]float64{opAuthorize: 0.25, opTransfer: 0.25, opDeposit: 0.25, opGateway: 0.25},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// cascadeHolders is how many leading principals hold a cascaded proxy
// and a gateway token.
func (wl *workload) cascadeHolders() int {
	if wl.cascades {
		return wl.principals
	}
	return min(probeHolders, wl.principals)
}

// accountHolders is how many leading principals own an account.
func (wl *workload) accountHolders() int {
	if wl.accounts {
		return wl.principals
	}
	return min(probeHolders, wl.principals)
}

// writes reports whether the mix appends to the bank's WAL.
func (wl *workload) writes() bool { return wl.mix[opTransfer]+wl.mix[opDeposit] > 0 }

func (wl *workload) mixString() string {
	var parts []string
	for op, w := range wl.mix {
		if w > 0 {
			parts = append(parts, opNames[op]+"="+strconv.FormatFloat(w, 'g', -1, 64))
		}
	}
	return strings.Join(parts, ",")
}

// arrival is one scheduled operation: due at offset at from the start
// of the window, performed by principal a (with b as the counterparty
// of a payment).
type arrival struct {
	at   time.Duration
	op   int
	a, b int32
}

// schedule draws a Poisson arrival stream at wl.rate for d from seed:
// exponential gaps, ops by mix weight, principals uniformly at random
// (payment counterparties distinct from the payer).
func (wl *workload) schedule(seed int64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	total := 0.0
	for _, w := range wl.mix {
		total += w
	}
	var out []arrival
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / wl.rate * float64(time.Second))
		if at >= d {
			return out
		}
		x, op := rng.Float64()*total, 0
		for op < numOps-1 && x >= wl.mix[op] {
			x -= wl.mix[op]
			op++
		}
		n := int32(wl.principals)
		a := rng.Int31n(n)
		b := (a + 1 + rng.Int31n(n-1)) % n
		out = append(out, arrival{at: at, op: op, a: a, b: b})
	}
}

// do performs one arrival. In traced runs rid names the request: the
// service clients are rebuilt over connections bound to it, so every
// downstream span carries the same ID.
func (d *deployment) do(a *arrival, rid string) error {
	s, peer := d.sims[a.a], d.sims[a.b]
	end, bank, payee := s.end, s.bank, peer.bank
	if rid != "" {
		fileC, bankC := d.lay.bind(d.fileC, rid), d.lay.bind(d.bankC, rid)
		end = svc.NewEndClient(fileC, s.ident, nil)
		bank = svc.NewAcctClient(bankC, s.ident, nil)
		payee = svc.NewAcctClient(bankC, peer.ident, nil)
	}
	switch a.op {
	case opAuthorize:
		_, err := end.Request(svc.RequestParams{
			Object: object, Op: "read",
			Proxies: []*proxy.Presentation{s.authz.PresentDelegate()},
		})
		return err
	case opTransfer:
		return bank.Transfer(s.acct, peer.acct, currency, 1)
	case opBalance:
		_, err := bank.Balance(s.acct, currency)
		return err
	case opDeposit:
		return d.deposit(s, peer, payee)
	case opGateway:
		return d.gatewayAuthorize(s, rid)
	}
	return fmt.Errorf("unknown op %d", a.op)
}

// deposit is the full §7.7 flow: the payor writes a check to the
// payee, who endorses it for deposit and presents it to the bank.
func (d *deployment) deposit(payor, payeeSim *sim, payee *svc.AcctClient) error {
	check, err := accounting.WriteCheck(accounting.WriteCheckParams{
		Payor: payor.ident, Bank: d.bankID, Account: payor.acct,
		Payee: payeeSim.ident.ID, Currency: currency, Amount: 1, Lifetime: time.Hour,
	})
	if err != nil {
		return err
	}
	endorsed, err := check.Endorse(payeeSim.ident, d.bankID, d.bankID, d.bank.Global(payeeSim.acct), true, nil)
	if err != nil {
		return err
	}
	_, err = payee.DepositCheck(endorsed, payeeSim.acct)
	return err
}

var gatewayBody = []byte(`{"object":"/shared/doc","op":"read"}`)

// gatewayAuthorize is POST /v1/authorize with the principal's bearer
// token. The gateway starts its own trace; its ID comes back in
// X-Trace-Id and is joined to rid.
func (d *deployment) gatewayAuthorize(s *sim, rid string) error {
	req, err := http.NewRequest("POST", d.gwURL+"/v1/authorize", bytes.NewReader(gatewayBody))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+s.token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if rid != "" {
		d.lay.alias(resp.Header.Get("X-Trace-Id"), rid)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway authorize: %s: %s", resp.Status, strings.TrimSpace(buf.String()))
	}
	return nil
}
