// Package daemon is the one bootstrap behind the six cmd/ daemons
// (acctd, authzd, filed, gatewayd, groupd, kdc).
//
// It has three parts. Common is the flag set and prologue every daemon
// shares: logging, tracing, the audit journal, the principal identity,
// and the /metrics + /healthz side listener. Serve is the RPC tail:
// listen, the bounded worker pool, server-side fault injection, and the
// wait for SIGINT/SIGTERM. Durable is the durability set of the
// ledgered daemons (acctd, groupd, authzd): it opens the server's
// durable.Host, starts its snapshotter and replication node, and merges
// ledger and replication health into /healthz.
//
// A daemon's main declares only its service mux, its provisioning file
// and its own flags:
//
//	d := daemon.New(flag.CommandLine, daemon.Spec{Name: "groups", Listen: "127.0.0.1:8091", Faults: "group.*"})
//	dur := d.Durable()
//	if err := d.Start(os.Args[1:]); err != nil { ... }
//	defer d.Close()
//	... build the server and its mux ...
//	if err := dur.Open(srv.Host, mux); err != nil { ... }
//	return d.Serve(mux, "group server listening")
package daemon

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"os"
	"os/signal"
	"syscall"

	"proxykit/internal/audit"
	"proxykit/internal/faultpoint"
	"proxykit/internal/kcrypto"
	"proxykit/internal/logging"
	"proxykit/internal/obs"
	"proxykit/internal/principal"
	"proxykit/internal/proxy"
	"proxykit/internal/pubkey"
	"proxykit/internal/statefile"
	"proxykit/internal/transport"
)

// Main runs a daemon's run function and exits 1, logging the error,
// when it fails.
func Main(name string, run func() error) {
	if err := run(); err != nil {
		slog.Error(name+" failed", "err", err)
		os.Exit(1)
	}
}

// LoadJSON decodes a daemon's JSON provisioning file into v.
func LoadJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// Common holds the settings every daemon shares, gatewayd included.
// A daemon with an empty Name (the KDC) has no principal identity.
type Common struct {
	State       string
	Name        string
	Realm       string
	Listen      string
	MetricsAddr string
	AuditFile   string
	FaultSpec   string
	FaultSeed   int64

	Log   logging.Options
	Trace obs.TraceOptions
}

// Spec is one RPC daemon's defaults.
type Spec struct {
	// Name is the default -name; empty registers no -state or -name
	// (the daemon has no principal identity).
	Name string
	// Listen is the default -listen address.
	Listen string
	// Faults is the RPC method pattern the -fault-spec usage text
	// illustrates, e.g. "acct.*".
	Faults string
}

// Daemon is one RPC daemon process: its settings, what the prologue
// set up, and what Close tears down.
type Daemon struct {
	Common
	RPCWorkers int

	// Set up by Start (or Prologue).
	Logger   *slog.Logger
	Journal  *audit.Journal
	Identity *pubkey.Identity // nil without a Name
	Resolve  func(principal.ID) (kcrypto.Verifier, error)

	fs      *flag.FlagSet
	durable *Durable
	health  []func() map[string]any
	closers []func()
}

// New registers the shared RPC daemon flags on fs with s's defaults.
func New(fs *flag.FlagSet, s Spec) *Daemon {
	d := &Daemon{fs: fs}
	if s.Name != "" {
		fs.StringVar(&d.State, "state", "./state", "shared state directory")
		fs.StringVar(&d.Name, "name", s.Name, "server principal name")
	}
	fs.StringVar(&d.Realm, "realm", "EXAMPLE.ORG", "realm name")
	fs.StringVar(&d.Listen, "listen", s.Listen, "listen address")
	fs.StringVar(&d.MetricsAddr, "metrics-addr", "", "observability HTTP listen address serving /metrics, /healthz, /traces, /audit, and /debug/pprof (disabled when empty)")
	fs.StringVar(&d.AuditFile, "audit-file", "", "hash-chained audit journal path (JSONL, append-only); empty keeps the journal in memory only")
	fs.StringVar(&d.FaultSpec, "fault-spec", "", fmt.Sprintf("server-side fault injection, e.g. '%s:drop=0.1,delay=50ms@0.2' (chaos testing; see internal/faultpoint)", s.Faults))
	fs.Int64Var(&d.FaultSeed, "fault-seed", 1, "PRNG seed for -fault-spec decisions")
	fs.IntVar(&d.RPCWorkers, "rpc-workers", 0, "bound on concurrently handled RPC requests (0 = default pool size)")
	d.Log.RegisterFlags(fs)
	d.Trace.RegisterFlags(fs)
	return d
}

// ChainCache registers -chain-cache. After Start, the returned function
// gives the configured verified-chain cache, nil when disabled.
func (d *Daemon) ChainCache() func() *proxy.ChainCache {
	n := d.fs.Int("chain-cache", proxy.DefaultChainCacheSize, "verified-chain cache capacity; 0 disables caching")
	return func() *proxy.ChainCache {
		if *n <= 0 {
			return nil
		}
		d.Logger.Info("verified-chain cache enabled", "capacity", *n)
		return proxy.NewChainCache(*n)
	}
}

// Start parses args, refuses invalid settings, and runs the prologue.
// A ledgered daemon's side listener starts later, in Durable.Open, so
// its first /healthz already carries the ledger and replication fields.
func (d *Daemon) Start(args []string) error {
	if err := d.fs.Parse(args); err != nil {
		return err
	}
	if d.durable != nil {
		if err := d.durable.parse(); err != nil {
			return err
		}
	}
	return d.prologue()
}

// Prologue runs the shared setup for a daemon whose flags were parsed
// elsewhere (gatewayd): logging, tracing, the audit journal, the side
// listener and the identity.
func Prologue(c Common) (*Daemon, error) {
	d := &Daemon{Common: c}
	return d, d.prologue()
}

// prologue sets up logging, tracing, the audit journal, the side
// listener (unless a durability set will start it) and the identity.
// On error, whatever was set up is torn down again.
func (d *Daemon) prologue() (err error) {
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	if d.Logger, err = d.Log.Setup(nil); err != nil {
		return err
	}
	cleanup, err := d.Trace.Apply()
	if err != nil {
		return err
	}
	d.Defer(cleanup)
	if d.Journal, err = audit.New(audit.Options{Path: d.AuditFile, Logger: d.Logger}); err != nil {
		return err
	}
	d.Defer(func() { _ = d.Journal.Close() })
	d.health = append(d.health, d.Journal.Health)
	if d.durable == nil {
		if err := d.serveMetrics(); err != nil {
			return err
		}
	}
	if d.Name != "" {
		if d.Identity, err = statefile.LoadOrCreateIdentity(d.State, principal.New(d.Name, d.Realm)); err != nil {
			return err
		}
		d.Resolve = statefile.DynamicResolver(d.State)
	}
	return nil
}

// serveMetrics starts the side listener when -metrics-addr is set;
// /healthz merges every registered health source in order.
func (d *Daemon) serveMetrics() error {
	if d.MetricsAddr == "" {
		return nil
	}
	msrv, maddr, err := obs.ServeWith(d.MetricsAddr, obs.HandlerOpts{
		Audit: d.Journal,
		Health: func() map[string]any {
			h := make(map[string]any)
			for _, src := range d.health {
				maps.Copy(h, src())
			}
			return h
		},
	})
	if err != nil {
		return err
	}
	d.Defer(func() { _ = msrv.Close() })
	d.Logger.Info("metrics listening", "url", fmt.Sprintf("http://%s/metrics", maddr))
	return nil
}

// Defer registers f to run at Close, before everything registered
// earlier.
func (d *Daemon) Defer(f func()) { d.closers = append(d.closers, f) }

// Close tears the daemon down in the reverse order of setup.
func (d *Daemon) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// Serve is the RPC tail: it listens, serves mux from the bounded
// worker pool with any -fault-spec injection, logs msg (with the
// server's principal, attrs and the bound address), and returns once
// SIGINT or SIGTERM arrives and the listener is closed.
func (d *Daemon) Serve(mux *transport.Mux, msg string, attrs ...any) error {
	l, err := net.Listen("tcp", d.Listen)
	if err != nil {
		return err
	}
	tcp := transport.NewTCPServerWorkers(l, mux, d.RPCWorkers)
	if d.FaultSpec != "" {
		inj, err := faultpoint.Parse(d.FaultSpec, d.FaultSeed)
		if err != nil {
			_ = tcp.Close()
			return err
		}
		tcp.SetInjector(inj)
		d.Logger.Warn("fault injection active", "spec", d.FaultSpec, "seed", d.FaultSeed)
	}
	if d.Identity != nil {
		attrs = append([]any{"server", d.Identity.ID.String()}, attrs...)
	}
	d.Logger.Info(msg, append(attrs, "addr", tcp.Addr().String())...)
	WaitForSignal()
	return tcp.Close()
}

// WaitForSignal blocks until SIGINT or SIGTERM arrives.
func WaitForSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
}
