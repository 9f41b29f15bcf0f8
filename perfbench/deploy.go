package main

// The deployment under test: the bank, end-server, group and authz
// daemons and the HTTP gateway, each on its own loopback TCP listener
// inside this process, configured with the daemons' defaults (see
// cmd/acctd, cmd/filed, cmd/groupd, cmd/authzd and cmd/gatewayd).

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/acl"
	"proxykit/internal/audit"
	"proxykit/internal/authz"
	"proxykit/internal/endserver"
	"proxykit/internal/gateway"
	"proxykit/internal/group"
	"proxykit/internal/kcrypto"
	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/repl"
	"proxykit/internal/statefile"
	"proxykit/internal/svc"
	"proxykit/internal/transport"
)

const (
	realm    = "BENCH.EXAMPLE.ORG"
	object   = "/shared/doc"
	currency = "dollars"
	// mintPerAccount is large enough that no run can overdraw an
	// account with one-dollar payments.
	mintPerAccount = 1_000_000_000
	// snapshotInterval replaces acctd's one-minute default so the
	// snapshotter fires at least twice in every 10 s window rather
	// than landing in some runs and missing others.
	snapshotInterval = 4 * time.Second
	// standbyPrimarySnapshotInterval is acctd's one-minute default,
	// kept for a primary that has a standby (mixed). A snapshot
	// truncates the WAL only if no append lands while it is taken,
	// and the standby's every pull re-reads the whole WAL
	// (Ledger.ReadEntries). At 4 s, CPU per op hung on how many
	// truncations won that race: it ran from 0.9 to 3 ms per op in one
	// 150 s mixed run. At the default no primary snapshot lands in a
	// run, so the WAL grows through every window alike and every run
	// pays the re-reads in full.
	standbyPrimarySnapshotInterval = time.Minute
	// holdSweepInterval is acctd's -hold-sweep-interval default.
	holdSweepInterval = time.Minute
	// syncTimeout makes the mixed workload's primary semi-synchronous;
	// it is far above the ack time, so a degraded commit means the
	// standby really fell behind.
	syncTimeout = 2 * time.Second
	// probeHolders is how many leading principals hold every kind of
	// input (account, cascaded proxy, token) whatever the workload, so
	// the after-window layer probes have inputs on every workload.
	probeHolders = 8
)

// sim is one provisioned principal.
type sim struct {
	ident *pubkey.Identity
	acct  string       // "" when the principal owns no account
	authz *proxy.Proxy // cascaded delegate proxy, nil when not provisioned
	token string       // gateway bearer token
	end   *svc.EndClient
	bank  *svc.AcctClient
}

// deployment is one stood-up deployment.
type deployment struct {
	wl      *workload
	dir     string
	state   string
	fileID  principal.ID
	bankID  principal.ID
	sims    []*sim
	idents  map[string]*pubkey.Identity
	minted  int64
	lay     *layers // nil in untraced runs
	fileC   transport.Client
	bankC   transport.Client
	bank    *accounting.Server
	standby *accounting.Server
	end     *endserver.Server
	gw      *gateway.Gateway
	gwURL   string
	httpc   *http.Client
	endJ    *audit.Journal
	bankJ   *audit.Journal
	gwJ     *audit.Journal
	closers []func()
	stopped bool
}

func (d *deployment) bankDir() string    { return filepath.Join(d.dir, "bank-ledger") }
func (d *deployment) standbyDir() string { return filepath.Join(d.dir, "standby-ledger") }

// walKiB is the size of the primary's WAL file, in KiB.
func (d *deployment) walKiB() float64 {
	st, err := os.Stat(ledger.WALPath(d.bankDir()))
	if err != nil {
		return 0
	}
	return float64(st.Size()) / 1024
}

// stop stops every server and goroutine the deployment started, in
// reverse start order.
func (d *deployment) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// close stops the deployment and removes its directory.
func (d *deployment) close() {
	d.stop()
	_ = os.RemoveAll(d.dir)
}

// deploy stands up the deployment for wl under parent and provisions
// the workload's principals, accounts and proxies. lay, when non-nil,
// wraps clients, muxes and resolvers for the traced run.
func deploy(parent string, wl *workload, lay *layers) (d *deployment, err error) {
	dir, err := os.MkdirTemp(parent, "deploy-")
	if err != nil {
		return nil, err
	}
	d = &deployment{wl: wl, dir: dir, state: filepath.Join(dir, "state"), lay: lay, idents: map[string]*pubkey.Identity{}}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if err := d.build(); err != nil {
		return nil, err
	}
	return d, nil
}

// resolver gives each daemon its own state-directory resolver, as
// separate daemon processes would have.
func (d *deployment) resolver(daemon string) func(principal.ID) (kcrypto.Verifier, error) {
	r := statefile.DynamicResolver(d.state)
	if d.lay != nil {
		return d.lay.wrapResolver(daemon, r)
	}
	return r
}

// serve starts a TCP server for mux (wrapped in traced runs) and dials
// the one multiplexed connection the generator and peers share.
func (d *deployment) serve(daemon string, mux *transport.Mux, methods []string) (*transport.TCPClient, string, error) {
	if d.lay != nil {
		mux = d.lay.wrapMux(daemon, mux, methods)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := transport.NewTCPServer(l, mux)
	d.closers = append(d.closers, func() { _ = srv.Close() })
	addr := srv.Addr().String()
	c, err := transport.DialTCP(addr, 5*time.Second)
	if err != nil {
		return nil, "", err
	}
	d.closers = append(d.closers, func() { _ = c.Close() })
	return c, addr, nil
}

// client is what a caller of daemon is handed: the shared connection,
// or in traced runs a wrapper that times calls.
func (d *deployment) client(daemon string, c *transport.TCPClient) transport.Client {
	if d.lay != nil {
		return d.lay.wrapClient(daemon, c)
	}
	return c
}

func newJournal() (*audit.Journal, error) {
	// The daemons' -audit-file default: an in-memory journal.
	return audit.New(audit.Options{})
}

func (d *deployment) build() error {
	wl := d.wl
	for _, name := range []string{"groups", "authz", "file/srv1", "bank"} {
		ident, err := statefile.CreateIdentity(d.state, principal.New(name, realm))
		if err != nil {
			return err
		}
		d.idents[name] = ident
	}
	d.fileID = d.idents["file/srv1"].ID
	d.bankID = d.idents["bank"].ID

	// Principals first, as an operator would register them with
	// proxyctl keygen before traffic: each goes through the shared
	// identity directory.
	d.sims = make([]*sim, wl.principals)
	for i := range d.sims {
		ident, err := statefile.CreateIdentity(d.state, principal.New(fmt.Sprintf("p%d", i), realm))
		if err != nil {
			return err
		}
		d.sims[i] = &sim{ident: ident}
	}

	groupSrv := group.New(d.idents["groups"], nil)
	authzSrv := authz.New(d.idents["authz"], nil)
	authzSrv.AddRule(authz.Rule{
		EndServer: d.fileID,
		Object:    object,
		Subject:   acl.Subject{Groups: []principal.Global{groupSrv.Global("staff")}},
		Ops:       []string{"read"},
	})
	for i := 0; i < wl.cascadeHolders(); i++ {
		groupSrv.AddMember("staff", d.sims[i].ident.ID)
	}

	var err error
	if d.endJ, err = newJournal(); err != nil {
		return err
	}
	if d.bankJ, err = newJournal(); err != nil {
		return err
	}
	if d.gwJ, err = newJournal(); err != nil {
		return err
	}
	endResolve := d.resolver("file")
	d.end = endserver.New(d.fileID, &proxy.VerifyEnv{ResolveIdentity: endResolve}, nil)
	d.end.SetJournal(d.endJ)
	d.end.SetChainCache(proxy.NewChainCache(proxy.DefaultChainCacheSize))
	d.end.SetACL(object, acl.New(acl.PrincipalEntry(d.idents["authz"].ID, "read")))

	bankC, bankAddr, err := d.startBank()
	if err != nil {
		return err
	}
	if wl.standby {
		if err := d.startStandby(bankAddr); err != nil {
			return err
		}
	}

	groupResolve := d.resolver("groups")
	gsvc := svc.NewGroupService(groupSrv, groupResolve, nil)
	gsvc.SetChainCache(proxy.NewChainCache(proxy.DefaultChainCacheSize))
	groupC, _, err := d.serve("groups", gsvc.Mux(), []string{svc.GroupGrantMethod})
	if err != nil {
		return err
	}
	authzResolve := d.resolver("authz")
	asvc := svc.NewAuthzService(authzSrv, authzResolve, nil)
	asvc.SetChainCache(proxy.NewChainCache(proxy.DefaultChainCacheSize))
	authzC, _, err := d.serve("authz", asvc.Mux(), []string{svc.GrantMethod})
	if err != nil {
		return err
	}
	fileC, _, err := d.serve("file", svc.NewEndService(d.end, endResolve, nil).Mux(),
		[]string{svc.ChallengeMethod, svc.RequestMethod, svc.HintsMethod})
	if err != nil {
		return err
	}
	d.fileC, d.bankC = d.client("file", fileC), d.client("bank", bankC)

	if err := d.provisionAccounts(); err != nil {
		return err
	}
	if err := d.provisionProxies(groupC, authzC); err != nil {
		return err
	}
	for _, s := range d.sims {
		s.end = svc.NewEndClient(d.fileC, s.ident, nil)
		s.bank = svc.NewAcctClient(d.bankC, s.ident, nil)
	}
	return d.startGateway(groupC, authzC, fileC, bankC)
}

// startBank opens the bank on a fresh ledger the way acctd does with
// -ledger-dir: fsync=always with group commit, an in-memory audit
// journal, the snapshotter, the hold sweeper, and a primary replication
// node mounted beside the service methods.
func (d *deployment) startBank() (*transport.TCPClient, string, error) {
	resolve := d.resolver("bank")
	d.bank = accounting.NewServer(d.idents["bank"], resolve, nil)
	if _, err := d.bank.OpenLedger(ledger.Options{Dir: d.bankDir(), Fsync: ledger.FsyncAlways}); err != nil {
		return nil, "", err
	}
	d.closers = append(d.closers, func() { _ = d.bank.CloseLedger() })
	interval := snapshotInterval
	if d.wl.standby {
		interval = standbyPrimarySnapshotInterval
	}
	d.closers = append(d.closers, d.bank.StartSnapshotter(interval))
	d.bank.SetJournal(d.bankJ)
	mux := svc.NewAcctService(d.bank, resolve, nil).Mux()
	cfg := repl.Config{SM: d.bank, Dir: d.bankDir()}
	if d.wl.standby {
		cfg.SyncTimeout = syncTimeout
	}
	node, err := repl.NewNode(cfg)
	if err != nil {
		return nil, "", err
	}
	d.closers = append(d.closers, node.Close)
	node.Mount(mux)
	d.closers = append(d.closers, d.bank.StartHoldSweeper(holdSweepInterval))
	return d.serve("bank", mux, acctMethods)
}

var acctMethods = []string{
	svc.CreateAccountMethod, svc.BalanceMethod, svc.TransferMethod, svc.DepositCheckMethod, svc.StatementMethod,
	repl.MethodStatus, repl.MethodPull, repl.MethodSnapshot, repl.MethodFence, repl.MethodPromote,
}

// startStandby runs a hot standby of the bank (acctd -standby
// -replicate-from) pulling over its own connection to the primary.
func (d *deployment) startStandby(primaryAddr string) error {
	d.standby = accounting.NewServer(d.idents["bank"], d.resolver("standby"), nil)
	if _, err := d.standby.OpenLedger(ledger.Options{Dir: d.standbyDir(), Fsync: ledger.FsyncAlways}); err != nil {
		return err
	}
	d.closers = append(d.closers, func() { _ = d.standby.CloseLedger() })
	d.closers = append(d.closers, d.standby.StartSnapshotter(snapshotInterval))
	src, err := transport.DialTCP(primaryAddr, 5*time.Second)
	if err != nil {
		return err
	}
	d.closers = append(d.closers, func() { _ = src.Close() })
	node, err := repl.NewNode(repl.Config{SM: d.standby, Dir: d.standbyDir(), Standby: true, Source: src})
	if err != nil {
		return err
	}
	d.closers = append(d.closers, node.Close)
	return nil
}

// parallel runs fn(i) for i in [0, n) on nproc workers and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int)
	)
	workers := runtime.NumCPU()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// provisionAccounts creates and funds one account per account holder
// (acctd -accounts), through the WAL.
func (d *deployment) provisionAccounts() error {
	n := d.wl.accountHolders()
	for i := 0; i < n; i++ {
		d.sims[i].acct = fmt.Sprintf("a%d", i)
	}
	d.minted = int64(n) * mintPerAccount
	return parallel(n, func(i int) error {
		s := d.sims[i]
		if err := d.bank.CreateAccount(s.acct, s.ident.ID); err != nil {
			return err
		}
		return d.bank.Mint(s.acct, currency, mintPerAccount)
	})
}

// provisionProxies walks each cascade holder through the real
// group-server -> authz-server cascade once, leaving a delegate
// authorization proxy the authorize op presents per request.
func (d *deployment) provisionProxies(groupC, authzC *transport.TCPClient) error {
	return parallel(d.wl.cascadeHolders(), func(i int) error {
		s := d.sims[i]
		gp, err := svc.NewGroupClient(groupC, s.ident, nil).Grant(svc.GroupGrantParams{
			Groups: []string{"staff"}, Lifetime: time.Hour, Delegate: true,
		})
		if err != nil {
			return fmt.Errorf("provision p%d: group grant: %w", i, err)
		}
		ap, err := svc.NewAuthzClient(authzC, s.ident, nil).Grant(svc.GrantParams{
			EndServer: d.fileID, Lifetime: time.Hour, Delegate: true,
			GroupProxies: []*proxy.Presentation{gp.PresentDelegate()},
		})
		if err != nil {
			return fmt.Errorf("provision p%d: authz grant: %w", i, err)
		}
		s.authz = ap
		return nil
	})
}

// startGateway runs the gatewayd core on a loopback HTTP listener with
// a bearer token per cascade holder.
func (d *deployment) startGateway(groupC, authzC, fileC, bankC *transport.TCPClient) error {
	mapping := &gateway.MappingConfig{}
	for i := 0; i < d.wl.cascadeHolders(); i++ {
		s := d.sims[i]
		s.token = fmt.Sprintf("tok-p%d-%s", i, s.ident.Public().KeyID())
		mapping.Tokens = append(mapping.Tokens, gateway.TokenEntry{
			Token: s.token, Subject: fmt.Sprintf("p%d", i),
			Principal: fmt.Sprintf("p%d@%s", i, realm), Groups: []string{"staff"},
		})
	}
	gw, err := gateway.New(gateway.Options{
		StateDir:    d.state,
		ID:          principal.New("gateway", realm),
		Mapping:     mapping,
		AuthzClient: d.client("gw.authz", authzC),
		GroupClient: d.client("gw.groups", groupC),
		AcctClient:  d.client("gw.bank", bankC),
		EndClient:   d.client("gw.file", fileC),
		EndServerID: d.fileID,
		BankID:      d.bankID,
		Journal:     d.gwJ,
	})
	if err != nil {
		return err
	}
	gw.Start()
	d.closers = append(d.closers, gw.Close)
	d.gw = gw
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	web := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = web.Serve(l)
	}()
	d.httpc = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()},
	}
	d.closers = append(d.closers, func() {
		d.httpc.CloseIdleConnections()
		_ = web.Shutdown(context.Background())
		<-served
	})
	d.gwURL = "http://" + l.Addr().String()
	return nil
}
