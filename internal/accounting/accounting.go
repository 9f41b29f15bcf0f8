// Package accounting implements the distributed accounting service of
// §4 of the paper.
//
// "Accounts are maintained on accounting servers. At a minimum, each
// account contains a unique name, an access-control-list, and a
// collection of records, each record specifying a currency and a
// balance. Accounting servers support multiple currencies, either
// monetary (dollars, pounds, or yen) or resource specific (disk blocks,
// cpu cycles, or printer pages)."
//
// Resource transfer uses checks: numbered delegate proxies whose
// restrictions encode the check number (accept-once), the amount
// (quota), the payee (grantee), and the bank drawn on (issued-for).
// Endorsements are cascaded proxies; clearing crosses accounting servers
// exactly as in Fig. 5, with each bank marking deposited funds
// uncollected until the payor's bank honors the check. Certified checks
// place holds; cashier's checks (the paper's "exercise for the reader")
// are drawn on the bank's own operating account.
package accounting

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/clock"
	"proxykit/internal/durable"
	"proxykit/internal/faultpoint"
	"proxykit/internal/kcrypto"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/replay"
	"proxykit/internal/transport"
)

// Account operations appearing in account ACLs.
const (
	OpDebit  = "debit"
	OpCredit = "credit"
	OpRead   = "read"
)

// Errors returned by the accounting server.
var (
	ErrNoAccount         = errors.New("accounting: no such account")
	ErrAccountExists     = errors.New("accounting: account already exists")
	ErrInsufficientFunds = errors.New("accounting: insufficient resources")
	ErrDeniedByACL       = errors.New("accounting: denied by account ACL")
	ErrBadCheck          = errors.New("accounting: invalid check")
	ErrDuplicateCheck    = errors.New("accounting: duplicate check number")
	ErrNoRoute           = errors.New("accounting: no route to drawee bank")
	ErrHoldExists        = errors.New("accounting: hold already exists for check number")
)

// hold is an outstanding certified-check reservation.
type hold struct {
	currency string
	amount   int64
	expires  time.Time
}

// account is one account's state.
type account struct {
	name        string
	acl         *acl.ACL
	balances    map[string]int64
	uncollected map[string]int64
	holds       map[string]*hold
	history     []Transaction
}

// Server is one accounting server ("$1", "$2" in Fig. 5).
type Server struct {
	// ID is the server's principal identity. Account global names
	// compose it with the local account name.
	ID principal.ID

	identity *pubkey.Identity
	env      *proxy.VerifyEnv
	clk      clock.Clock
	registry *replay.Cache

	// createMu serializes account creation (the check-then-commit in
	// CreateAccount/ensureAccount), so two racing creates of one name
	// cannot both commit an opCreate record.
	createMu sync.Mutex

	// acctMu guards the accounts map itself (membership); the state
	// inside each account is guarded by its stripe in locks.go.
	acctMu   sync.RWMutex
	accounts map[string]*account

	// stripes are the hash-striped account locks; see locks.go for the
	// order discipline.
	stripes [lockStripes]sync.RWMutex

	// cfgMu guards the mutable wiring below — peers, hops, journal,
	// injectors — and ForwardedChecks. It is a leaf lock: nothing else
	// is acquired while holding it.
	cfgMu    sync.Mutex
	peers    map[principal.ID]*Server
	nextHop  *Server
	journal  *audit.Journal
	hopRetry transport.RetryPolicy
	hopInj   *faultpoint.Injector

	// ForwardedChecks counts checks this server endorsed onward to
	// another bank (clearing traffic, for the experiments). Guarded by
	// cfgMu; read directly only in sequential tests.
	ForwardedChecks int

	// Host is the bank's durability: ledger, commit gate, snapshots and
	// the replication hooks. log is its commit path (persist.go).
	*durable.Host
	log durable.Log
}

// SetJournal attaches an audit journal; every balance-changing decision
// (transfers, deposits, clearing hops, holds) is sealed into its chain.
func (s *Server) SetJournal(j *audit.Journal) {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.journal = j
}

// emit seals one record into the attached journal, if any. Callers must
// not hold account stripes. The record's Time and Server are filled in.
func (s *Server) emit(rec audit.Record) {
	s.cfgMu.Lock()
	j := s.journal
	s.cfgMu.Unlock()
	if j == nil {
		return
	}
	rec.Time = s.clk.Now()
	rec.Server = s.ID
	j.Append(rec)
}

// NewServer creates an accounting server. resolve supplies grantor
// identity verification (the public-key directory).
func NewServer(identity *pubkey.Identity, resolve func(principal.ID) (kcrypto.Verifier, error), clk clock.Clock) *Server {
	if clk == nil {
		clk = clock.System{}
	}
	s := &Server{
		ID:       identity.ID,
		identity: identity,
		clk:      clk,
		registry: replay.New(clk),
		accounts: make(map[string]*account),
		peers:    make(map[principal.ID]*Server),
	}
	s.env = &proxy.VerifyEnv{
		Server:          identity.ID,
		Clock:           clk,
		ResolveIdentity: resolve,
	}
	s.Host, s.log = durable.New("accounting", machine{s})
	return s
}

// Global returns the global name of a local account.
func (s *Server) Global(name string) principal.Global {
	return principal.NewGlobal(s.ID, name)
}

// AddPeer registers a directly reachable peer bank.
func (s *Server) AddPeer(p *Server) {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.peers[p.ID] = p
}

// SetNextHop sets the correspondent bank used to clear checks drawn on
// banks that are not direct peers.
func (s *Server) SetNextHop(p *Server) {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.nextHop = p
}

// SetHopRetry configures retrying of outbound clearing hops. The zero
// policy (the default) makes a single attempt, preserving the
// synchronous Fig. 5 behavior. With retries enabled, a redelivered
// deposit that the next bank rejects as a duplicate is treated as the
// lost acknowledgment of an earlier success — the accept-once registry
// (§7.7) is the ack of record — so clearing under loss converges to
// exactly-once credit.
func (s *Server) SetHopRetry(p transport.RetryPolicy) {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.hopRetry = p
}

// SetHopInjector installs a fault injector on outbound clearing hops
// (method "acct.clearing-hop"): deliveries to the next bank can be
// dropped before or after taking effect, duplicated, delayed, failed,
// or partitioned. nil removes injection.
func (s *Server) SetHopInjector(inj *faultpoint.Injector) {
	s.cfgMu.Lock()
	defer s.cfgMu.Unlock()
	s.hopInj = inj
}

// CreateAccount creates an account owned by owner, who receives full
// rights on it.
func (s *Server) CreateAccount(name string, owner principal.ID) error {
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if _, ok := s.lookup(name); ok {
		return fmt.Errorf("%w: %s", ErrAccountExists, name)
	}
	// The new account's stripe is held across the commit so whole-bank
	// captures cannot observe the opCreate appended but not yet applied.
	unlock := s.lockAccount(name)
	defer unlock()
	return s.commitOp(&op{kind: opCreate, acct: name, owner: owner})
}

// createAccountApply inserts the account into the map; the applyOp leg
// of opCreate, for both the live path and recovery replay.
func (s *Server) createAccountApply(name string, owner principal.ID) error {
	s.acctMu.Lock()
	defer s.acctMu.Unlock()
	if _, ok := s.accounts[name]; ok {
		return fmt.Errorf("%w: %s", ErrAccountExists, name)
	}
	s.accounts[name] = &account{
		name:        name,
		acl:         acl.New(acl.PrincipalEntry(owner, OpDebit, OpCredit, OpRead)),
		balances:    make(map[string]int64),
		uncollected: make(map[string]int64),
		holds:       make(map[string]*hold),
	}
	return nil
}

// AccountACL returns the account's ACL for extension (e.g. adding an
// authorization server, §3.5). The ACL is internally synchronized.
func (s *Server) AccountACL(name string) (*acl.ACL, error) {
	a, ok := s.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoAccount, name)
	}
	return a.acl, nil
}

// Mint credits an account out of thin air — provisioning for tests,
// examples, and resource-currency servers (a printer server minting
// "pages").
// A non-positive amount is rejected: minting zero is meaningless and a
// negative mint is a disguised debit that would bypass the account ACL.
func (s *Server) Mint(name, currency string, amount int64) error {
	if amount <= 0 {
		return fmt.Errorf("%w: mint amount must be positive, got %d", ErrBadCheck, amount)
	}
	if _, ok := s.lookup(name); !ok {
		return fmt.Errorf("%w: %s", ErrNoAccount, name)
	}
	unlock := s.lockAccount(name)
	defer unlock()
	return s.commitOp(&op{kind: opMint, time: s.clk.Now(), acct: name, currency: currency, amount: amount})
}

// Balance returns the collected balance, requiring read rights.
func (s *Server) Balance(name, currency string, requesters []principal.ID) (int64, error) {
	mBalanceReads.Inc()
	a, ok := s.lookup(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoAccount, name)
	}
	if _, err := a.acl.Match(acl.Query{Op: OpRead, Identities: requesters}); err != nil {
		return 0, fmt.Errorf("%w: read %s: %v", ErrDeniedByACL, name, err)
	}
	unlock := s.rlockAccount(name)
	defer unlock()
	return a.balances[currency], nil
}

// UncollectedBalance returns deposited-but-unclear funds.
func (s *Server) UncollectedBalance(name, currency string, requesters []principal.ID) (int64, error) {
	mBalanceReads.Inc()
	a, ok := s.lookup(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoAccount, name)
	}
	if _, err := a.acl.Match(acl.Query{Op: OpRead, Identities: requesters}); err != nil {
		return 0, fmt.Errorf("%w: read %s: %v", ErrDeniedByACL, name, err)
	}
	unlock := s.rlockAccount(name)
	defer unlock()
	return a.uncollected[currency], nil
}

// Transfer moves funds between two local accounts; requesters need
// debit rights on from. This is also the quota primitive: "Quotas are
// implemented by transferring funds of the appropriate currency out of
// an account when the resource is allocated and transferring the funds
// back when the resource is released."
func (s *Server) Transfer(from, to, currency string, amount int64, requesters []principal.ID) error {
	return s.TransferCtx(context.Background(), from, to, currency, amount, requesters)
}

// TransferCtx is Transfer with a request context; the context's trace
// ID is stamped onto the audit record.
func (s *Server) TransferCtx(ctx context.Context, from, to, currency string, amount int64, requesters []principal.ID) (err error) {
	defer func() {
		rec := audit.Record{
			Kind:       audit.KindTransfer,
			TraceID:    obs.TraceIDFrom(ctx),
			Presenters: requesters,
			Object:     debitObject(from),
			Op:         OpDebit,
			Outcome:    audit.OutcomeGranted,
			Detail: map[string]string{
				"from":     from,
				"to":       to,
				"currency": currency,
				"amount":   strconv.FormatInt(amount, 10),
			},
		}
		if err != nil {
			mTransfers.With("error").Inc()
			rec.Outcome = audit.OutcomeDenied
			rec.Reason = err.Error()
		} else {
			mTransfers.With("ok").Inc()
		}
		s.emit(rec)
	}()
	if amount < 0 {
		return fmt.Errorf("%w: negative amount", ErrBadCheck)
	}
	// A self-transfer is rejected rather than silently recorded: it
	// would add two no-op statement lines per call and, through
	// AllocateQuota/ReleaseQuota, let a consumer "reserve" quota into
	// its own account without ever parting with the funds.
	if from == to {
		return fmt.Errorf("%w: transfer from %q to itself", ErrBadCheck, from)
	}
	src, ok := s.lookup(from)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoAccount, from)
	}
	if _, ok := s.lookup(to); !ok {
		return fmt.Errorf("%w: %s", ErrNoAccount, to)
	}
	if _, err := src.acl.Match(acl.Query{Op: OpDebit, Identities: requesters}); err != nil {
		return fmt.Errorf("%w: debit %s: %v", ErrDeniedByACL, from, err)
	}
	// Both stripes, ascending: the funds check and the commit form one
	// critical section, and opposite-direction transfers cannot deadlock.
	unlock := s.lockPair(from, to)
	defer unlock()
	if src.balances[currency] < amount {
		return fmt.Errorf("%w: %s has %d %s, need %d", ErrInsufficientFunds,
			from, src.balances[currency], currency, amount)
	}
	return s.commitOp(&op{kind: opTransfer, time: s.clk.Now(), acct: from, to: to, currency: currency, amount: amount})
}

// AllocateQuota reserves amount of currency from the consumer's account
// into the resource holder's account, failing if the quota is exhausted.
func (s *Server) AllocateQuota(consumer, holder, currency string, amount int64, requesters []principal.ID) error {
	return s.Transfer(consumer, holder, currency, amount, requesters)
}

// ReleaseQuota returns previously allocated resources; the holder's ACL
// must grant the requesters debit rights on the holder account.
func (s *Server) ReleaseQuota(holder, consumer, currency string, amount int64, requesters []principal.ID) error {
	return s.Transfer(holder, consumer, currency, amount, requesters)
}
