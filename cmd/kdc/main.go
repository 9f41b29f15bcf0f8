// Command kdc runs the Kerberos-style key distribution center (§6.2):
// the authentication and ticket-granting services for one realm.
//
// Principals are provisioned from a password file with one
// "principal:password" entry per line; service principals get keys
// derived from their passwords the same way (servers run with the same
// password to derive the matching key).
//
//	kdc -realm ATHENA.EXAMPLE.ORG -listen :8088 -passwd passwd.txt
//
// With -metrics-addr set, a side HTTP listener serves /metrics
// (Prometheus text; ?format=json for JSON), /healthz, /traces (recent
// RPC spans), /audit (the audit journal tail), and /debug/pprof. See
// OBSERVABILITY.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"proxykit/internal/daemon"
	"proxykit/internal/kerberos"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

func main() { daemon.Main("kdc", run) }

func run() error {
	d := daemon.New(flag.CommandLine, daemon.Spec{Listen: "127.0.0.1:8088", Faults: "krb.*"})
	passwd := flag.String("passwd", "", "password file: principal:password per line")
	if err := d.Start(os.Args[1:]); err != nil {
		return err
	}
	defer d.Close()

	kdc, err := kerberos.NewKDC(d.Realm, nil)
	if err != nil {
		return err
	}
	if *passwd != "" {
		n, err := loadPasswords(kdc, *passwd)
		if err != nil {
			return err
		}
		d.Logger.Info("provisioned principals", "count", n, "file", *passwd)
	}
	err = d.Serve(svc.NewKDCService(kdc).Mux(), "kdc listening", "realm", d.Realm, "tgs", kdc.TGS().String())
	d.Logger.Info("shutting down")
	return err
}

func loadPasswords(kdc *kerberos.KDC, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, password, ok := strings.Cut(line, ":")
		if !ok {
			return n, fmt.Errorf("malformed line %q", line)
		}
		id, err := principal.Parse(strings.TrimSpace(name))
		if err != nil {
			return n, err
		}
		if _, err := kdc.RegisterWithPassword(id, strings.TrimSpace(password)); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}
