package daemon

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"proxykit/internal/group"
	"proxykit/internal/principal"
	"proxykit/internal/svc"
)

// newDurableDaemon registers a ledgered daemon's flags on a private
// flag set.
func newDurableDaemon() (*Daemon, *Durable) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := New(fs, Spec{Name: "groups", Listen: "127.0.0.1:0", Faults: "group.*"})
	return d, d.Durable()
}

// TestStartRefusesBadFsync: -fsync is checked at startup even without
// -ledger-dir, before anything is set up.
func TestStartRefusesBadFsync(t *testing.T) {
	state := t.TempDir()
	for _, args := range [][]string{
		{"-state", state, "-fsync", "bogus"},
		{"-state", state, "-fsync", "bogus", "-ledger-dir", t.TempDir()},
	} {
		d, _ := newDurableDaemon()
		err := d.Start(args)
		if err == nil {
			d.Close()
			t.Fatalf("Start(%q) accepted -fsync=bogus", args)
		}
		if !strings.Contains(err.Error(), "bogus") {
			t.Errorf("Start(%q): %v, want an error naming the bad mode", args, err)
		}
		if d.Journal != nil || d.Identity != nil {
			t.Errorf("Start(%q) set up the daemon before refusing its flags", args)
		}
	}
}

// TestStartRefusesBadReplication: replication flags that cannot work
// together stop the daemon at startup.
func TestStartRefusesBadReplication(t *testing.T) {
	state, dir := t.TempDir(), t.TempDir()
	for _, args := range [][]string{
		{"-standby", "-replicate-from", "127.0.0.1:1"},
		{"-repl-sync-timeout", "1s"},
		{"-ledger-dir", dir, "-standby"},
		{"-ledger-dir", dir, "-replicate-from", "127.0.0.1:1"},
	} {
		d, _ := newDurableDaemon()
		if err := d.Start(append([]string{"-state", state}, args...)); err == nil {
			d.Close()
			t.Errorf("Start(%q) accepted an unusable replication setup", args)
		}
	}
}

// TestDurableOpenAndClose: the durability set opens the server's host
// on -ledger-dir, merges ledger and replication health, and Close
// releases the ledger so the same directory reopens with the state.
func TestDurableOpenAndClose(t *testing.T) {
	state, dir := t.TempDir(), filepath.Join(t.TempDir(), "ledger")
	start := func() (*Daemon, *group.Server) {
		d, dur := newDurableDaemon()
		if err := d.Start([]string{"-state", state, "-ledger-dir", dir, "-fsync", "off", "-log-level", "error"}); err != nil {
			t.Fatal(err)
		}
		srv := group.New(d.Identity, nil)
		if err := dur.Open(srv.Host, svc.NewGroupService(srv, d.Resolve, nil).Mux()); err != nil {
			d.Close()
			t.Fatal(err)
		}
		return d, srv
	}
	d, srv := start()
	srv.AddMember("staff", principal.New("alice", "EXAMPLE.ORG"))
	health := make(map[string]any)
	for _, src := range d.health {
		for k, v := range src() {
			health[k] = v
		}
	}
	for _, key := range []string{"auditRecords", "ledgerLastSeq", "replRole"} {
		if _, ok := health[key]; !ok {
			t.Errorf("merged health lacks %q: %v", key, health)
		}
	}
	d.Close()
	if srv.Ledger() != nil {
		t.Fatal("Close left the ledger attached")
	}

	d, srv = start()
	defer d.Close()
	if got := srv.Groups(); len(got) != 1 {
		t.Fatalf("reopened database has groups %v, want staff", got)
	}
}
