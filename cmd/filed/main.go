// Command filed runs an application end-server (a file server) over
// TCP, authorizing operations via ACLs and restricted proxies (§3.5).
//
// Per-object ACLs are loaded from a JSON file:
//
//	{
//	  "/shared/doc": [
//	    {"principals": ["alice@EXAMPLE.ORG"], "ops": ["read", "write"]},
//	    {"groups": ["staff%groups@EXAMPLE.ORG"], "ops": ["read"]}
//	  ]
//	}
//
//	filed -state ./state -name file/srv1 -listen :8093 -acl acl.json
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
	"proxykit/internal/daemon"
	"proxykit/internal/endserver"
	"proxykit/internal/proxy"
	"proxykit/internal/svc"
)

// entryJSON is the ACL-file schema.
type entryJSON struct {
	Principals []string `json:"principals"`
	Groups     []string `json:"groups"`
	Ops        []string `json:"ops"`
}

func main() { daemon.Main("filed", run) }

func run() error {
	d := daemon.New(flag.CommandLine, daemon.Spec{Name: "file/srv1", Listen: "127.0.0.1:8093", Faults: "end.*"})
	chainCache := d.ChainCache()
	aclFile := flag.String("acl", "", "JSON ACL file")
	if err := d.Start(os.Args[1:]); err != nil {
		return err
	}
	defer d.Close()

	srv := endserver.New(d.Identity.ID, &proxy.VerifyEnv{ResolveIdentity: d.Resolve}, nil)
	srv.SetJournal(d.Journal)
	srv.SetChainCache(chainCache())
	if *aclFile != "" {
		n, err := loadACLs(srv, *aclFile)
		if err != nil {
			return err
		}
		d.Logger.Info("loaded ACLs", "objects", n, "file", *aclFile)
	}
	return d.Serve(svc.NewEndService(srv, d.Resolve, nil).Mux(), "end-server listening")
}

func loadACLs(srv *endserver.Server, path string) (int, error) {
	var objects map[string][]entryJSON
	if err := daemon.LoadJSON(path, &objects); err != nil {
		return 0, err
	}
	for object, entries := range objects {
		a := acl.New()
		for _, e := range entries {
			sub, err := acl.ParseSubject(e.Principals, e.Groups)
			if err != nil {
				return 0, err
			}
			a.Add(acl.Entry{Subject: sub, Ops: e.Ops})
		}
		srv.SetACL(object, a)
	}
	return len(objects), nil
}
