package accounting

// Durable accounting state (§4: the accounting server is the system of
// record). Every committed mutation is one WAL record appended — while
// holding the stripes of every account it touches, so WAL order equals
// commit order for any two conflicting ops (ops on disjoint accounts
// commute, so their relative WAL order is irrelevant to replay) —
// *before* the in-memory state changes become visible, and both the
// live path and recovery replay go through the same applyOp, so a
// replayed server is the same state machine, not a reimplementation of
// it.
//
// One record per *logical* mutation keeps replay all-or-nothing: a
// check redemption is a single record carrying the accept-once entry,
// the hold consumption or balance debit, and the credit; a cross-bank
// deposit writes `pending` (accept + uncollected credit) before the
// clearing hop leaves this bank, then `collected` or `rollback` when
// the hop settles. A crash between `pending` and its settlement leaves
// an in-doubt deposit: funds uncollected and the number accepted —
// visible in the statement, resolved operationally (see DESIGN.md,
// "Durability").

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/principal"
	"proxykit/internal/replay"
	"proxykit/internal/restrict"
	"proxykit/internal/wire"
)

// opKind enumerates WAL record types.
type opKind uint8

const (
	opCreate      opKind = iota + 1 // create account
	opMint                          // mint into a balance
	opTransfer                      // local transfer between accounts
	opRedeem                        // drawee-bank check redemption (accept + debit/hold-consume + credit)
	opPending                       // collecting bank: accept + uncollected credit, before the hop
	opCollected                     // collecting bank: uncollected -> final balance
	opRollback                      // collecting bank: undo pending (uncollected debit + forget)
	opHold                          // certified-check hold placed
	opHoldUndo                      // hold undone (certification failed to issue); no statement line
	opHoldRelease                   // expired hold returned to the account
)

// op is one WAL record. Fields are a union over the kinds; unused ones
// stay zero. The timestamp rides in the record so replayed statement
// lines carry the original times.
type op struct {
	kind       opKind
	time       time.Time
	acct       string // debit-side account (create/mint/transfer-from/payor/hold)
	to         string // credit-side account (transfer-to/redeem credit/pending credit)
	owner      principal.ID
	currency   string
	amount     int64
	number     string
	grantorKey string
	expires    time.Time
}

// encodeOp serializes an op with the wire codec — the WAL append is on
// the transfer hot path, and the binary encoder is an order of
// magnitude cheaper than JSON. The returned encoder comes from the
// shared pool; the caller releases it once the bytes have been
// consumed (Ledger.Append copies them before returning).
func encodeOp(o *op) *wire.Encoder {
	e := wire.GetEncoder(64 + len(o.acct) + len(o.to) + len(o.number) + len(o.grantorKey))
	e.Uint8(uint8(o.kind))
	e.Time(o.time)
	e.String(o.acct)
	e.String(o.to)
	o.owner.Encode(e)
	e.String(o.currency)
	e.Int64(o.amount)
	e.String(o.number)
	e.String(o.grantorKey)
	e.Time(o.expires)
	return e
}

// decodeOp parses a WAL record payload.
func decodeOp(b []byte) (*op, error) {
	d := wire.NewDecoder(b)
	o := &op{}
	o.kind = opKind(d.Uint8())
	o.time = d.Time()
	o.acct = d.String()
	o.to = d.String()
	o.owner = principal.DecodeID(d)
	o.currency = d.String()
	o.amount = d.Int64()
	o.number = d.String()
	o.grantorKey = d.String()
	o.expires = d.Time()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("accounting: decode WAL op: %w", err)
	}
	return o, nil
}

// commitOp durably records the op, then applies it. Callers hold, in
// write mode, the stripe of every account the op mutates, and have
// fully validated it; a refused or failed commit leaves the in-memory
// state untouched (the mutation never happened). Under the ledger's
// group commit, concurrent commitOp calls on disjoint stripes share one
// fsync.
func (s *Server) commitOp(o *op) error {
	e := encodeOp(o)
	err := s.log.Commit(e.Bytes())
	e.Release()
	if err != nil {
		return err
	}
	return s.applyOp(o)
}

// applyOp mutates in-memory state for one op. It is the single
// mutation path: the live handlers call it after validating and
// appending (holding the touched accounts' stripes), and recovery
// calls it single-threaded for every replayed record. It only fails on
// states a validated-then-logged op cannot produce (a missing account
// in a replayed record means the WAL is not ours).
func (s *Server) applyOp(o *op) error {
	get := func(name string) (*account, error) {
		a, ok := s.lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoAccount, name)
		}
		return a, nil
	}
	switch o.kind {
	case opCreate:
		return s.createAccountApply(o.acct, o.owner)
	case opMint:
		a, err := get(o.acct)
		if err != nil {
			return err
		}
		a.balances[o.currency] += o.amount
		a.record(Transaction{Time: o.time, Kind: TxMint, Currency: o.currency, Amount: o.amount})
	case opTransfer:
		src, err := get(o.acct)
		if err != nil {
			return err
		}
		dst, err := get(o.to)
		if err != nil {
			return err
		}
		src.balances[o.currency] -= o.amount
		dst.balances[o.currency] += o.amount
		src.record(Transaction{Time: o.time, Kind: TxTransferOut, Currency: o.currency, Amount: o.amount, Counterparty: o.to})
		dst.record(Transaction{Time: o.time, Kind: TxTransferIn, Currency: o.currency, Amount: o.amount, Counterparty: o.acct})
	case opRedeem:
		payor, err := get(o.acct)
		if err != nil {
			return err
		}
		dst, err := get(o.to)
		if err != nil {
			return err
		}
		s.acceptReplayable(o.grantorKey, o.number, o.expires)
		if h, ok := payor.holds[o.number]; ok {
			delete(payor.holds, o.number)
			if h.amount > o.amount { // return the difference
				payor.balances[h.currency] += h.amount - o.amount
			}
		} else {
			payor.balances[o.currency] -= o.amount
		}
		dst.balances[o.currency] += o.amount
		payor.record(Transaction{Time: o.time, Kind: TxCheckPaid, Currency: o.currency, Amount: o.amount, Counterparty: o.to, CheckNumber: o.number})
		dst.record(Transaction{Time: o.time, Kind: TxCheckDeposited, Currency: o.currency, Amount: o.amount, Counterparty: o.acct, CheckNumber: o.number})
	case opPending:
		dst, err := get(o.to)
		if err != nil {
			return err
		}
		s.acceptReplayable(o.grantorKey, o.number, o.expires)
		dst.uncollected[o.currency] += o.amount
	case opCollected:
		dst, err := get(o.to)
		if err != nil {
			return err
		}
		dst.uncollected[o.currency] -= o.amount
		dst.balances[o.currency] += o.amount
		dst.record(Transaction{Time: o.time, Kind: TxCheckDeposited, Currency: o.currency, Amount: o.amount, CheckNumber: o.number})
	case opRollback:
		dst, err := get(o.to)
		if err != nil {
			return err
		}
		dst.uncollected[o.currency] -= o.amount
		s.registry.Forget(o.grantorKey, o.number)
	case opHold:
		a, err := get(o.acct)
		if err != nil {
			return err
		}
		a.balances[o.currency] -= o.amount
		a.holds[o.number] = &hold{currency: o.currency, amount: o.amount, expires: o.expires}
		a.record(Transaction{Time: o.time, Kind: TxHold, Currency: o.currency, Amount: o.amount, CheckNumber: o.number})
	case opHoldUndo:
		a, err := get(o.acct)
		if err != nil {
			return err
		}
		if h, ok := a.holds[o.number]; ok {
			delete(a.holds, o.number)
			a.balances[h.currency] += h.amount
		}
	case opHoldRelease:
		a, err := get(o.acct)
		if err != nil {
			return err
		}
		h, ok := a.holds[o.number]
		if !ok {
			return fmt.Errorf("accounting: replay: no hold %s on %s", o.number, o.acct)
		}
		delete(a.holds, o.number)
		a.balances[h.currency] += h.amount
		a.record(Transaction{Time: o.time, Kind: TxHoldReleased, Currency: h.currency, Amount: h.amount, CheckNumber: o.number})
	default:
		return fmt.Errorf("accounting: replay: unknown op kind %d", o.kind)
	}
	return nil
}

// acceptReplayable records a check number in the accept-once registry,
// tolerating ErrDuplicate: on the live path the number was already
// accepted by depositCheck before the op was committed, so the apply's
// accept is a no-op there and the real population step on replay.
func (s *Server) acceptReplayable(grantorKey, number string, expires time.Time) {
	if err := s.registry.Accept(grantorKey, number, expires); err != nil && !errors.Is(err, replay.ErrDuplicate) {
		// Only a zero expiry reaches here, and checks always carry one.
		s.registry.Forget(grantorKey, number)
	}
}

// ---- snapshot state ----

// Snapshot schema. Everything is sorted so the same logical state
// always marshals to the same bytes — the lossless-recovery property
// test compares snapshots of a recovered server against a never-crashed
// one byte-for-byte.

type snapACLEntry struct {
	Principals   []string `json:"principals,omitempty"`
	Groups       []string `json:"groups,omitempty"`
	Ops          []string `json:"ops,omitempty"`
	Restrictions []byte   `json:"restrictions,omitempty"` // restrict.Set wire bytes
}

type snapHold struct {
	Number   string    `json:"number"`
	Currency string    `json:"currency"`
	Amount   int64     `json:"amount"`
	Expires  time.Time `json:"expires"`
}

type snapAccount struct {
	Name        string           `json:"name"`
	ACL         []snapACLEntry   `json:"acl"`
	Balances    map[string]int64 `json:"balances"`
	Uncollected map[string]int64 `json:"uncollected"`
	Holds       []snapHold       `json:"holds,omitempty"`
	History     []Transaction    `json:"history,omitempty"`
}

type snapState struct {
	Accounts   []snapAccount  `json:"accounts"`
	AcceptOnce []replay.Entry `json:"acceptOnce,omitempty"`
}

// machine is the bank as its durable.Host drives it. Its locks are the
// account stripes: a record's append and apply happen under the
// stripes of the accounts it touches, and a capture runs under every
// stripe, so the captured state and its WAL position agree.
type machine struct{ *Server }

// Apply decodes one WAL record, and under the stripes of the accounts
// it touches runs log and then applyOp.
func (m machine) Apply(record []byte, log func() error) error {
	o, err := decodeOp(record)
	if err != nil {
		return err
	}
	unlock := m.lockOpAccounts(o)
	defer unlock()
	if err := log(); err != nil {
		return err
	}
	return m.applyOp(o)
}

// lockOpAccounts write-locks the stripes of every account the op
// mutates, mirroring the live commit paths so whole-bank captures never
// observe a half-applied record.
func (s *Server) lockOpAccounts(o *op) (unlock func()) {
	a, b := o.acct, o.to
	switch {
	case a != "" && b != "":
		return s.lockPair(a, b)
	case a != "":
		return s.lockAccount(a)
	case b != "":
		return s.lockAccount(b)
	default:
		return func() {}
	}
}

// Capture serializes the full server state (accounts, balances,
// uncollected funds, holds, statement tails, accept-once entries) as a
// deterministic JSON document. Commits hold their accounts' stripes
// across append+apply, so with every stripe held here no commit is
// mid-flight when mark reads the WAL position.
func (m machine) Capture(mark func()) ([]byte, error) {
	unlock := m.lockAll()
	defer unlock()
	m.acctMu.RLock()
	defer m.acctMu.RUnlock()
	mark()
	st := snapState{AcceptOnce: m.registry.Export()}
	for _, name := range m.sortedNamesLocked() {
		a := m.accounts[name]
		sa := snapAccount{
			Name:        name,
			Balances:    a.balances,
			Uncollected: a.uncollected,
			History:     a.history,
		}
		for _, e := range a.acl.Entries() {
			se := snapACLEntry{Ops: e.Ops}
			for _, p := range e.Subject.Principals {
				se.Principals = append(se.Principals, p.String())
			}
			for _, g := range e.Subject.Groups {
				se.Groups = append(se.Groups, g.String())
			}
			if len(e.Restrictions) > 0 {
				se.Restrictions = e.Restrictions.Marshal()
			}
			sa.ACL = append(sa.ACL, se)
		}
		nums := make([]string, 0, len(a.holds))
		for num := range a.holds {
			nums = append(nums, num)
		}
		sort.Strings(nums)
		for _, num := range nums {
			h := a.holds[num]
			sa.Holds = append(sa.Holds, snapHold{Number: num, Currency: h.currency, Amount: h.amount, Expires: h.expires})
		}
		st.Accounts = append(st.Accounts, sa)
	}
	return json.Marshal(st)
}

// Restore decodes a snapshot document into a fresh accounts map, then,
// holding createMu and every stripe exclusively — no read may observe
// the swap half-done — runs install and swaps the accounts and the
// accept-once registry in.
func (m machine) Restore(raw []byte, install func() error) error {
	var st snapState
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	accounts := make(map[string]*account, len(st.Accounts))
	for _, sa := range st.Accounts {
		a, err := restoreAccount(sa)
		if err != nil {
			return err
		}
		accounts[sa.Name] = a
	}
	m.createMu.Lock()
	defer m.createMu.Unlock()
	unlock := m.lockAllExclusive()
	defer unlock()
	if err := install(); err != nil {
		return err
	}
	m.acctMu.Lock()
	m.accounts = accounts
	m.acctMu.Unlock()
	m.registry.Clear()
	m.registry.Restore(st.AcceptOnce)
	return nil
}

// restoreAccount rebuilds one account from its snapshot form.
func restoreAccount(sa snapAccount) (*account, error) {
	entries := make([]acl.Entry, 0, len(sa.ACL))
	for _, se := range sa.ACL {
		e := acl.Entry{Ops: se.Ops}
		for _, p := range se.Principals {
			id, err := principal.Parse(p)
			if err != nil {
				return nil, fmt.Errorf("restore ACL principal %q: %w", p, err)
			}
			e.Subject.Principals = append(e.Subject.Principals, id)
		}
		for _, g := range se.Groups {
			gl, err := principal.ParseGlobal(g)
			if err != nil {
				return nil, fmt.Errorf("restore ACL group %q: %w", g, err)
			}
			e.Subject.Groups = append(e.Subject.Groups, gl)
		}
		if len(se.Restrictions) > 0 {
			rs, err := restrict.Unmarshal(se.Restrictions)
			if err != nil {
				return nil, fmt.Errorf("restore ACL restrictions: %w", err)
			}
			e.Restrictions = rs
		}
		entries = append(entries, e)
	}
	a := &account{
		name:        sa.Name,
		acl:         acl.New(entries...),
		balances:    sa.Balances,
		uncollected: sa.Uncollected,
		holds:       make(map[string]*hold),
		history:     sa.History,
	}
	if a.balances == nil {
		a.balances = make(map[string]int64)
	}
	if a.uncollected == nil {
		a.uncollected = make(map[string]int64)
	}
	for _, h := range sa.Holds {
		a.holds[h.Number] = &hold{currency: h.Currency, amount: h.Amount, expires: h.Expires}
	}
	return a, nil
}
