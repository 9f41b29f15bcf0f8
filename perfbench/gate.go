package main

// The correctness gate every run passes before it may report numbers,
// and the parity checks that the deployment's default mechanisms ran.

import (
	"fmt"
	"maps"
	"reflect"
	"time"

	"proxykit/internal/accounting"
	"proxykit/internal/audit"
	"proxykit/internal/ledger"
	"proxykit/internal/statefile"
)

// moneyOnBooks is every unit of currency the bank holds for anyone.
func moneyOnBooks(s *accounting.Server) int64 {
	t := s.Totals()
	return t.Balances[currency] + t.Uncollected[currency] + t.Held[currency] + t.Clearing[currency]
}

// quiesceStandby waits for the standby to apply everything the primary
// has committed.
func (d *deployment) quiesceStandby() error {
	want := d.bank.Ledger().LastSeq()
	deadline := time.Now().Add(15 * time.Second)
	for d.standby.Ledger().LastSeq() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("standby stuck at seq %d, primary at %d", d.standby.Ledger().LastSeq(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func verifyJournal(name string, j *audit.Journal) error {
	recs := j.Tail(0)
	if err := audit.VerifyChain(recs); err != nil {
		return fmt.Errorf("%s audit chain: %w", name, err)
	}
	if n := len(recs); n > 0 && recs[n-1].Hash != j.Stats().LastHash {
		return fmt.Errorf("%s audit chain: tail ends at %.12s, journal head is %.12s", name, recs[n-1].Hash, j.Stats().LastHash)
	}
	return nil
}

// gate runs the live checks, stops the deployment, and reopens the
// primary's ledger. It returns every failure found.
func (d *deployment) gate(runStart counters) []string {
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	if got := moneyOnBooks(d.bank); got != d.minted {
		fail("money not conserved on the primary: %d on the books, %d minted", got, d.minted)
	}
	if d.standby != nil {
		if err := d.quiesceStandby(); err != nil {
			fail("%v", err)
		} else {
			p, pseq, perr := d.bank.SnapshotState()
			s, sseq, serr := d.standby.SnapshotState()
			switch {
			case perr != nil || serr != nil:
				fail("snapshot state: primary %v, standby %v", perr, serr)
			case pseq != sseq || string(p) != string(s):
				fail("standby state differs from the primary's (seq %d vs %d)", sseq, pseq)
			}
			if got := moneyOnBooks(d.standby); got != d.minted {
				fail("money not conserved on the standby: %d on the books, %d minted", got, d.minted)
			}
		}
	}
	now, err := readCounters()
	if err != nil {
		fail("read counters: %v", err)
	} else {
		if n, _ := now.delta(runStart, "proxykit_repl_sync_degraded_total"); n != 0 {
			fail("semi-sync replication degraded to async %v times", n)
		}
		if n, _ := now.delta(runStart, "proxykit_acct_accept_once_rejections_total"); n != 0 {
			fail("accept-once rejected %v deposits", n)
		}
		if n, _ := now.delta(runStart, `proxykit_ledger_snapshot_total{outcome=error}`); n != 0 {
			fail("%v ledger snapshots failed", n)
		}
	}
	for name, j := range map[string]*audit.Journal{"end-server": d.endJ, "bank": d.bankJ, "gateway": d.gwJ} {
		if err := verifyJournal(name, j); err != nil {
			fail("%v", err)
		}
	}

	balances := d.bank.AccountBalances()
	d.stop()
	re := accounting.NewServer(d.idents["bank"], statefile.DynamicResolver(d.state), nil)
	if _, err := re.OpenLedger(ledger.Options{Dir: d.bankDir(), Fsync: ledger.FsyncAlways}); err != nil {
		fail("reopen the primary's ledger: %v", err)
	} else {
		if got := re.AccountBalances(); !maps.EqualFunc(got, balances, func(a, b map[string]int64) bool { return reflect.DeepEqual(a, b) }) {
			fail("reopened ledger's balances differ from the live bank's")
		}
		if err := re.CloseLedger(); err != nil {
			fail("close the reopened ledger: %v", err)
		}
	}
	return fails
}

// parity checks that the daemons' default mechanisms ran in the
// window: the caches hit as the workload intends, group commit batched,
// and the snapshotter fired.
func parity(wl *workload, w *windowStats, window time.Duration) []string {
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	switch wl.name {
	case "authz":
		if r := w.chainHitRatio; r < 0.3 || r > 0.7 {
			fail("chain cache hit ratio %.3f outside [0.3, 0.7]", r)
		}
	case "mixed":
		if r := w.chainHitRatio; r <= 0.9 {
			fail("chain cache hit ratio %.3f not above 0.9", r)
		}
		if r := w.gatewayHitRatio; r <= 0.9 {
			fail("gateway proxy cache hit ratio %.3f not above 0.9", r)
		}
	}
	if wl.writes() {
		if w.batchRecordsMean < 1 {
			fail("group commit batched %.3f records per batch, want >= 1", w.batchRecordsMean)
		}
		// At least two snapshots in a full-length window; a window
		// shorter than two snapshot intervals (a smoke run) needs fewer.
		// On mixed they are the standby's: its primary snapshots at
		// acctd's default, which no run lasts long enough to reach.
		if want := min(2, int(window/snapshotInterval)); w.snapshots < float64(want) {
			fail("the snapshotter succeeded %v times in the window, want >= %d", w.snapshots, want)
		}
	}
	return fails
}
