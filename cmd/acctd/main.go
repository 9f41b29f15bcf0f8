// Command acctd runs an accounting server (§4) over TCP.
//
// Accounts are provisioned from a JSON file:
//
//	[
//	  {"name": "carol", "owner": "carol@EXAMPLE.ORG",
//	   "mint": {"dollars": 1000, "pages": 50}}
//	]
//
//	acctd -state ./state -name bank1 -listen :8092 -accounts accounts.json
//
// With -metrics-addr set, a side HTTP listener serves /metrics
// (Prometheus text; ?format=json for JSON), /healthz, /traces (recent
// RPC spans), /audit (the audit journal tail), and /debug/pprof. See
// OBSERVABILITY.md.
package main

import (
	"errors"
	"flag"
	"os"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/daemon"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

// accountJSON is the accounts-file schema.
type accountJSON struct {
	Name  string           `json:"name"`
	Owner string           `json:"owner"`
	Mint  map[string]int64 `json:"mint"`
}

func main() { daemon.Main("acctd", run) }

func run() error {
	d := daemon.New(flag.CommandLine, daemon.Spec{Name: "bank", Listen: "127.0.0.1:8092", Faults: "acct.*"})
	dur := d.Durable()
	accounts := flag.String("accounts", "", "JSON accounts file")
	holdSweep := flag.Duration("hold-sweep-interval", time.Minute, "how often expired certified-check holds are swept back to their accounts; 0 disables the sweeper")
	if err := d.Start(os.Args[1:]); err != nil {
		return err
	}
	defer d.Close()

	srv := accounting.NewServer(d.Identity, d.Resolve, nil)
	srv.SetJournal(d.Journal)
	mux := svc.NewAcctService(srv, d.Resolve, nil).Mux()
	if err := dur.Open(srv.Host, mux); err != nil {
		return err
	}

	if *accounts != "" {
		if dur.Standby {
			// A standby's books come from the primary's WAL; local
			// provisioning would be refused by the commit gate anyway.
			d.Logger.Info("standby: skipping account provisioning", "file", *accounts)
		} else {
			n, err := loadAccounts(srv, *accounts)
			if err != nil {
				return err
			}
			d.Logger.Info("provisioned accounts", "count", n, "file", *accounts)
		}
	}

	if *holdSweep > 0 && !dur.Standby {
		d.Defer(srv.StartHoldSweeper(*holdSweep))
		d.Logger.Info("hold sweeper running", "interval", *holdSweep)
	}
	return d.Serve(mux, "accounting server listening")
}

func loadAccounts(srv *accounting.Server, path string) (int, error) {
	var as []accountJSON
	if err := daemon.LoadJSON(path, &as); err != nil {
		return 0, err
	}
	for _, a := range as {
		owner, err := principal.Parse(a.Owner)
		if err != nil {
			return 0, err
		}
		if err := srv.CreateAccount(a.Name, owner); err != nil {
			// Provisioning is idempotent across restarts: an account
			// recovered from the ledger is left alone — re-minting its
			// opening balance on every restart would print money.
			if errors.Is(err, accounting.ErrAccountExists) {
				continue
			}
			return 0, err
		}
		for currency, amount := range a.Mint {
			if err := srv.Mint(a.Name, currency, amount); err != nil {
				return 0, err
			}
		}
	}
	return len(as), nil
}
