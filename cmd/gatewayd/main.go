// Command gatewayd runs the HTTP edge gateway: bearer tokens in,
// restricted proxy chains out.
//
// It terminates plain HTTP+JSON for clients that cannot speak the
// native credential protocol, maps tokens (and impersonated external
// subjects) onto principals via a declarative mapping file, obtains
// restricted proxies through the authorization and group servers,
// caches them with background renewal, and forwards operations to the
// end-server and the bank over the multiplexed RPC transport:
//
//	gatewayd -state ./state -listen :8095 -mapping mapping.json \
//	  -authz-server :8090 -group-server :8091 -acct-server :8092 \
//	  -end-server :8093 -end-server-id files@EXAMPLE.ORG -bank-id bank@EXAMPLE.ORG
//
// The operator guide and the full HTTP API reference live in
// GATEWAY.md. With -metrics-addr set, a side HTTP listener serves
// /metrics, /healthz, /traces, /audit, and /debug/pprof (see
// OBSERVABILITY.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"time"

	"proxykit/internal/daemon"
	"proxykit/internal/faultpoint"
	"proxykit/internal/gateway"
	"proxykit/internal/principal"
	"proxykit/internal/transport"
)

func main() { daemon.Main("gatewayd", run) }

func run() error {
	var opts gateway.DaemonOptions
	opts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if opts.Mapping == "" {
		return fmt.Errorf("-mapping is required (see GATEWAY.md)")
	}
	mapping, err := gateway.LoadMapping(opts.Mapping)
	if err != nil {
		return err
	}
	endID, err := principal.Parse(opts.EndServerID)
	if err != nil {
		return fmt.Errorf("-end-server-id: %w", err)
	}
	bankID, err := principal.Parse(opts.BankID)
	if err != nil {
		return fmt.Errorf("-bank-id: %w", err)
	}

	d, err := daemon.Prologue(opts.Common)
	if err != nil {
		return err
	}
	defer d.Close()
	logger := d.Logger

	var inj *faultpoint.Injector
	if opts.FaultSpec != "" {
		inj, err = faultpoint.Parse(opts.FaultSpec, opts.FaultSeed)
		if err != nil {
			return err
		}
		logger.Warn("fault injection active", "spec", opts.FaultSpec, "seed", opts.FaultSeed)
	}
	dial := func(addr string) (*transport.TCPClient, error) {
		c, err := transport.DialTCPPool(addr, opts.DialTimeout, opts.RPCPool)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		if inj != nil {
			c.SetInjector(inj)
		}
		return c, nil
	}
	authzC, err := dial(opts.AuthzAddr)
	if err != nil {
		return err
	}
	defer authzC.Close()
	acctC, err := dial(opts.AcctAddr)
	if err != nil {
		return err
	}
	defer acctC.Close()
	endC, err := dial(opts.EndAddr)
	if err != nil {
		return err
	}
	defer endC.Close()
	var groupC transport.Client
	if opts.GroupAddr != "" {
		gc, err := dial(opts.GroupAddr)
		if err != nil {
			return err
		}
		defer gc.Close()
		groupC = gc
	}

	g, err := gateway.New(gateway.Options{
		StateDir:      opts.State,
		ID:            d.Identity.ID,
		Mapping:       mapping,
		AuthzClient:   authzC,
		GroupClient:   groupC,
		AcctClient:    acctC,
		EndClient:     endC,
		EndServerID:   endID,
		BankID:        bankID,
		ProxyLifetime: opts.ProxyLifetime,
		RenewWithin:   opts.RenewWithin,
		RenewInterval: opts.RenewInterval,
		Journal:       d.Journal,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	if opts.RenewInterval > 0 {
		g.Start()
	}
	defer g.Close()

	l, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: g.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			logger.Error("http server failed", "err", err)
		}
	}()
	logger.Info("gateway listening", "server", d.Identity.ID.String(),
		"addr", l.Addr().String(), "tokens", len(mapping.Tokens))

	daemon.WaitForSignal()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
