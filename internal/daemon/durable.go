package daemon

import (
	"errors"
	"fmt"
	"time"

	"proxykit/internal/durable"
	"proxykit/internal/ledger"
	"proxykit/internal/repl"
	"proxykit/internal/transport"
)

// Durable is the durability flag set of the ledgered daemons: the
// ledger directory, its fsync policy and group commit, the snapshot
// interval, and replication.
type Durable struct {
	d *Daemon

	dir         string
	fsync       string
	mode        ledger.FsyncMode
	groupCommit bool
	snapEvery   time.Duration

	// Standby runs the daemon as a read-only hot standby of the primary
	// at replicateFrom.
	Standby       bool
	replicateFrom string
	syncTimeout   time.Duration
}

// Durable registers the durability flags. Their values are checked at
// Start, whether or not -ledger-dir is set.
func (d *Daemon) Durable() *Durable {
	u := &Durable{d: d}
	fs := d.fs
	fs.StringVar(&u.dir, "ledger-dir", "", "durable ledger directory (WAL + snapshots); empty keeps all state in memory only")
	fs.StringVar(&u.fsync, "fsync", "always", "WAL durability: always (fsync per append), interval (periodic fsync), off (buffered)")
	fs.BoolVar(&u.groupCommit, "group-commit", true, "batch concurrent fsync=always appends into commit cohorts (one fsync per batch)")
	fs.DurationVar(&u.snapEvery, "snapshot-interval", time.Minute, "how often the ledger snapshots full state and truncates the WAL; 0 disables the background snapshotter")
	fs.BoolVar(&u.Standby, "standby", false,
		"run as a read-only hot standby replaying the primary's WAL (requires -ledger-dir and -replicate-from)")
	fs.StringVar(&u.replicateFrom, "replicate-from", "",
		"primary's RPC address to replicate from (standby mode)")
	fs.DurationVar(&u.syncTimeout, "repl-sync-timeout", 0,
		"semi-synchronous replication: hold each commit until a standby acknowledges it or this timeout passes; 0 ships asynchronously")
	d.durable = u
	return u
}

// parse validates the parsed durability flags.
func (u *Durable) parse() (err error) {
	if u.mode, err = ledger.ParseFsyncMode(u.fsync); err != nil {
		return err
	}
	switch {
	case u.dir == "" && (u.Standby || u.replicateFrom != "" || u.syncTimeout > 0):
		return errors.New("repl: replication requires -ledger-dir")
	case u.Standby && u.replicateFrom == "":
		return errors.New("repl: -standby requires -replicate-from")
	case !u.Standby && u.replicateFrom != "":
		return errors.New("repl: -replicate-from requires -standby")
	}
	return nil
}

// Open makes h durable and replicable, then starts the side listener.
// With -ledger-dir set it opens the ledger (recovering any state on
// disk), starts the snapshotter, and mounts a replication node on mux —
// a ledgered daemon is always shippable; the flags pick standby mode
// and semi-sync. Ledger and replication health join /healthz. Close
// undoes all of it.
func (u *Durable) Open(h *durable.Host, mux *transport.Mux) error {
	if u.dir != "" {
		if err := u.open(h, mux); err != nil {
			return err
		}
	}
	return u.d.serveMetrics()
}

func (u *Durable) open(h *durable.Host, mux *transport.Mux) error {
	d := u.d
	rec, err := h.OpenLedger(ledger.Options{Dir: u.dir, Fsync: u.mode, NoGroupCommit: !u.groupCommit, Logger: d.Logger})
	if err != nil {
		return err
	}
	d.Defer(func() { _ = h.CloseLedger() })
	d.Logger.Info("ledger open", "dir", u.dir, "fsync", u.mode.String(),
		"replayed", len(rec.Entries), "snapshotSeq", rec.SnapshotSeq, "tornTail", rec.TornTail)
	if u.snapEvery > 0 {
		d.Defer(h.StartSnapshotter(u.snapEvery))
	}
	d.health = append(d.health, func() map[string]any {
		if lg := h.Ledger(); lg != nil {
			return lg.Health()
		}
		return nil
	})

	cfg := repl.Config{SM: h, Dir: u.dir, Standby: u.Standby, SyncTimeout: u.syncTimeout, Logger: d.Logger}
	if u.Standby {
		src, err := transport.DialTCP(u.replicateFrom, 5*time.Second)
		if err != nil {
			return fmt.Errorf("repl: dial primary %s: %w", u.replicateFrom, err)
		}
		d.Defer(func() { _ = src.Close() })
		cfg.Source = src
	}
	node, err := repl.NewNode(cfg)
	if err != nil {
		return err
	}
	node.Mount(mux)
	d.Defer(node.Close)
	d.health = append(d.health, node.Health)
	st := node.Status()
	d.Logger.Info("replication node started",
		"role", st.Role.String(), "term", st.Term, "lastSeq", st.LastSeq,
		"source", u.replicateFrom, "syncTimeout", u.syncTimeout)
	return nil
}
