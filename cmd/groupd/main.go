// Command groupd runs a group server (§3.3) over TCP.
//
// Groups are loaded from a JSON file mapping group names to member
// lists; members containing '%' are nested groups (possibly maintained
// by other group servers):
//
//	{
//	  "staff": ["alice@EXAMPLE.ORG", "developers%groups@EXAMPLE.ORG"],
//	  "developers": ["bob@EXAMPLE.ORG"]
//	}
//
//	groupd -state ./state -name groups -listen :8091 -groups groups.json
//
// With -metrics-addr set, a side HTTP listener serves /metrics
// (Prometheus text; ?format=json for JSON), /healthz, /traces (recent
// RPC spans), /audit (the audit journal tail), and /debug/pprof. See
// OBSERVABILITY.md.
package main

import (
	"flag"
	"os"
	"strings"

	"proxykit/internal/daemon"
	"proxykit/internal/group"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

func main() { daemon.Main("groupd", run) }

func run() error {
	d := daemon.New(flag.CommandLine, daemon.Spec{Name: "groups", Listen: "127.0.0.1:8091", Faults: "group.*"})
	dur := d.Durable()
	chainCache := d.ChainCache()
	groups := flag.String("groups", "", "JSON groups file")
	if err := d.Start(os.Args[1:]); err != nil {
		return err
	}
	defer d.Close()

	srv := group.New(d.Identity, nil)
	srv.SetJournal(d.Journal)
	gsvc := svc.NewGroupService(srv, d.Resolve, nil)
	gsvc.SetChainCache(chainCache())
	mux := gsvc.Mux()
	if err := dur.Open(srv.Host, mux); err != nil {
		return err
	}

	// Provision from the file only when the database came up empty —
	// a ledger-recovered database already contains these groups (plus
	// any later edits), and re-adding nested groups would duplicate
	// their entries. A standby's database comes from the primary's WAL.
	if *groups != "" && len(srv.Groups()) == 0 && !dur.Standby {
		n, err := loadGroups(srv, *groups)
		if err != nil {
			return err
		}
		d.Logger.Info("loaded groups", "count", n, "file", *groups)
	}
	return d.Serve(mux, "group server listening")
}

func loadGroups(srv *group.Server, path string) (int, error) {
	var gs map[string][]string
	if err := daemon.LoadJSON(path, &gs); err != nil {
		return 0, err
	}
	for name, members := range gs {
		srv.AddGroup(name)
		for _, m := range members {
			if strings.Contains(m, "%") {
				nested, err := principal.ParseGlobal(m)
				if err != nil {
					return 0, err
				}
				srv.AddNestedGroup(name, nested)
				continue
			}
			id, err := principal.Parse(m)
			if err != nil {
				return 0, err
			}
			srv.AddMember(name, id)
		}
	}
	return len(gs), nil
}
