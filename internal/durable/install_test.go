package durable_test

import (
	"bytes"
	"testing"

	"proxykit/internal/accounting"
	"proxykit/internal/acl"
	"proxykit/internal/authz"
	"proxykit/internal/group"
	"proxykit/internal/ledger"
	"proxykit/internal/principal"
	"proxykit/internal/pubkey"
)

// hosted is the slice of a ledger-backed server this test drives.
type hosted interface {
	OpenLedger(ledger.Options) (*ledger.Recovery, error)
	CloseLedger() error
	Ledger() *ledger.Ledger
	SnapshotState() ([]byte, uint64, error)
	InstallSnapshot(state []byte, seq uint64) error
}

func identity(t *testing.T, name string) *pubkey.Identity {
	t.Helper()
	id, err := pubkey.NewIdentity(principal.New(name, "EXAMPLE.ORG"))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestInstallSnapshotFailureKeepsState: a standby handed a snapshot it
// cannot decode must keep serving its last good state — the puller
// halts it there, and a read must never go backwards. Each machine's
// state and its ledger position must be exactly what they were.
func TestInstallSnapshotFailureKeepsState(t *testing.T) {
	alice := principal.New("alice", "EXAMPLE.ORG")
	machines := []struct {
		name string
		// build returns a server holding one item of state, with a
		// ledger attached.
		build func(t *testing.T) hosted
		// partial is valid JSON whose first item decodes and whose
		// second does not.
		partial string
	}{
		{
			name: "accounting",
			build: func(t *testing.T) hosted {
				s := accounting.NewServer(identity(t, "bank"), nil, nil)
				open(t, s)
				if err := s.CreateAccount("carol", alice); err != nil {
					t.Fatal(err)
				}
				if err := s.Mint("carol", "dollars", 10); err != nil {
					t.Fatal(err)
				}
				return s
			},
			partial: `{"accounts":[{"name":"ok","acl":[]},{"name":"bad","acl":[{"principals":["nobody"]}]}]}`,
		},
		{
			name: "group",
			build: func(t *testing.T) hosted {
				s := group.New(identity(t, "groups"), nil)
				open(t, s)
				s.AddMember("staff", alice)
				return s
			},
			partial: `{"groups":[{"name":"ok"},{"name":"bad","principals":["nobody"]}]}`,
		},
		{
			name: "authz",
			build: func(t *testing.T) hosted {
				s := authz.New(identity(t, "authz"), nil)
				open(t, s)
				s.AddRule(authz.Rule{
					EndServer: principal.New("file/srv1", "EXAMPLE.ORG"),
					Object:    "/doc",
					Subject:   acl.Subject{Principals: principal.NewCompound(alice)},
					Ops:       []string{"read"},
				})
				return s
			},
			partial: `{"rules":[{"endServer":"file/srv1@EXAMPLE.ORG"},{"endServer":"nobody"}]}`,
		},
	}
	for _, m := range machines {
		for _, bad := range []struct{ name, state string }{
			{"not-json", "{not json"},
			{"partial", m.partial},
		} {
			t.Run(m.name+"/"+bad.name, func(t *testing.T) {
				s := m.build(t)
				before, beforeSeq, err := s.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				if beforeSeq == 0 {
					t.Fatal("setup committed no WAL records")
				}
				if err := s.InstallSnapshot([]byte(bad.state), 99); err == nil {
					t.Fatal("InstallSnapshot accepted an undecodable snapshot")
				}
				after, afterSeq, err := s.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, after) {
					t.Errorf("state changed by a failed install:\nbefore %s\nafter  %s", before, after)
				}
				if afterSeq != beforeSeq || s.Ledger().LastSeq() != beforeSeq {
					t.Errorf("ledger moved by a failed install: LastSeq %d, want %d", s.Ledger().LastSeq(), beforeSeq)
				}
			})
		}
	}
}

func open(t *testing.T, s hosted) {
	t.Helper()
	if _, err := s.OpenLedger(ledger.Options{Dir: t.TempDir(), Fsync: ledger.FsyncOff}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.CloseLedger() })
}
