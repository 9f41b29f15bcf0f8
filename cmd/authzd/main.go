// Command authzd runs an authorization server (§3.2) over TCP.
//
// The server's identity is created (or loaded) in the shared state
// directory; its database is loaded from a JSON rules file:
//
//	[
//	  {"endServer": "file/srv1@EXAMPLE.ORG", "object": "/shared/doc",
//	   "principals": ["alice@EXAMPLE.ORG"],
//	   "groups": ["staff%groups@EXAMPLE.ORG"],
//	   "ops": ["read"]}
//	]
//
//	authzd -state ./state -name authz -listen :8090 -rules rules.json
//
// With -metrics-addr set, a side HTTP listener serves /metrics
// (Prometheus text; ?format=json for JSON), /healthz, /traces (recent
// RPC spans), /audit (the audit journal tail), and /debug/pprof. See
// OBSERVABILITY.md.
package main

import (
	"flag"
	"os"

	"proxykit/internal/acl"
	"proxykit/internal/authz"
	"proxykit/internal/daemon"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

// ruleJSON is the rules-file schema.
type ruleJSON struct {
	EndServer  string   `json:"endServer"`
	Object     string   `json:"object"`
	Principals []string `json:"principals"`
	Groups     []string `json:"groups"`
	Ops        []string `json:"ops"`
}

func main() { daemon.Main("authzd", run) }

func run() error {
	d := daemon.New(flag.CommandLine, daemon.Spec{Name: "authz", Listen: "127.0.0.1:8090", Faults: "authz.*"})
	dur := d.Durable()
	chainCache := d.ChainCache()
	rules := flag.String("rules", "", "JSON rules file")
	if err := d.Start(os.Args[1:]); err != nil {
		return err
	}
	defer d.Close()

	srv := authz.New(d.Identity, nil)
	srv.SetJournal(d.Journal)
	asvc := svc.NewAuthzService(srv, d.Resolve, nil)
	asvc.SetChainCache(chainCache())
	mux := asvc.Mux()
	if err := dur.Open(srv.Host, mux); err != nil {
		return err
	}

	// Provision from the file only when the database came up empty — a
	// ledger-recovered database already holds these rules, and AddRule
	// appends, so reloading would duplicate every rule per restart. A
	// standby's database comes from the primary's WAL.
	if *rules != "" && len(srv.Rules()) == 0 && !dur.Standby {
		n, err := loadRules(srv, *rules)
		if err != nil {
			return err
		}
		d.Logger.Info("loaded rules", "count", n, "file", *rules)
	}
	return d.Serve(mux, "authorization server listening")
}

func loadRules(srv *authz.Server, path string) (int, error) {
	var rs []ruleJSON
	if err := daemon.LoadJSON(path, &rs); err != nil {
		return 0, err
	}
	for _, r := range rs {
		endServer, err := principal.Parse(r.EndServer)
		if err != nil {
			return 0, err
		}
		subject, err := acl.ParseSubject(r.Principals, r.Groups)
		if err != nil {
			return 0, err
		}
		srv.AddRule(authz.Rule{
			EndServer: endServer,
			Object:    r.Object,
			Subject:   subject,
			Ops:       r.Ops,
		})
	}
	return len(rs), nil
}
