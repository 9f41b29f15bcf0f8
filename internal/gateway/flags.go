package gateway

import (
	"flag"
	"time"

	"proxykit/internal/daemon"
)

// DaemonOptions are gatewayd's command-line settings. They live here —
// not in cmd/gatewayd — so TestGatewayDocCatalogue can enumerate the
// registered flags and hold GATEWAY.md to them. The embedded Common
// settings feed the shared daemon prologue; gatewayd registers them
// with its own defaults and wording, since it serves HTTP, not RPC.
type DaemonOptions struct {
	daemon.Common

	Mapping string

	AuthzAddr   string
	GroupAddr   string
	AcctAddr    string
	EndAddr     string
	EndServerID string
	BankID      string

	RPCPool int

	ProxyLifetime time.Duration
	RenewWithin   time.Duration
	RenewInterval time.Duration
	DialTimeout   time.Duration
}

// RegisterFlags registers every gatewayd flag on fs, mirroring the
// other daemons' conventions (-state/-name/-realm/-listen,
// -metrics-addr, -audit-file, -fault-spec/-fault-seed).
func (o *DaemonOptions) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.State, "state", "./state", "shared state directory")
	fs.StringVar(&o.Name, "name", "gateway", "gateway principal name")
	fs.StringVar(&o.Realm, "realm", "EXAMPLE.ORG", "realm name")
	fs.StringVar(&o.Listen, "listen", "127.0.0.1:8095", "HTTP API listen address")
	fs.StringVar(&o.Mapping, "mapping", "", "JSON token/impersonation mapping file (required)")

	fs.StringVar(&o.AuthzAddr, "authz-server", "127.0.0.1:8090", "authorization server RPC address")
	fs.StringVar(&o.GroupAddr, "group-server", "", "group server RPC address (empty disables group proxies)")
	fs.StringVar(&o.AcctAddr, "acct-server", "127.0.0.1:8092", "accounting server RPC address")
	fs.StringVar(&o.EndAddr, "end-server", "127.0.0.1:8093", "end-server RPC address")
	fs.StringVar(&o.EndServerID, "end-server-id", "files@EXAMPLE.ORG", "end-server principal authz proxies target")
	fs.StringVar(&o.BankID, "bank-id", "bank@EXAMPLE.ORG", "accounting server principal (check endorsement)")

	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "observability HTTP listen address serving /metrics, /healthz, /traces, /audit, and /debug/pprof (disabled when empty)")
	fs.StringVar(&o.AuditFile, "audit-file", "", "hash-chained audit journal path (JSONL, append-only); empty keeps the journal in memory only")
	fs.StringVar(&o.FaultSpec, "fault-spec", "", "fault injection on the gateway's outbound RPC clients, e.g. 'end.*:drop=0.1' (chaos testing; see internal/faultpoint)")
	fs.Int64Var(&o.FaultSeed, "fault-seed", 1, "PRNG seed for -fault-spec decisions")
	fs.IntVar(&o.RPCPool, "rpc-pool", 1, "multiplexed connections per downstream service")

	fs.DurationVar(&o.ProxyLifetime, "proxy-lifetime", DefaultProxyLifetime, "lifetime requested for acquired proxies")
	fs.DurationVar(&o.RenewWithin, "renew-within", DefaultRenewWithin, "renew cached proxies this close to expiry")
	fs.DurationVar(&o.RenewInterval, "renew-interval", DefaultRenewInterval, "background renewal sweep interval; 0 disables the sweeper")
	fs.DurationVar(&o.DialTimeout, "dial-timeout", 5*time.Second, "downstream dial timeout and default per-call RPC deadline")

	o.Log.RegisterFlags(fs)
	o.Trace.RegisterFlags(fs)
}
