package ledger

import "proxykit/internal/obs"

// Ledger metrics. Process-global by design: a process typically runs
// one ledger-backed server, and the doc catalogue in OBSERVABILITY.md
// is keyed by metric name.
var (
	mAppends = obs.Default.NewCounter("proxykit_ledger_appends_total",
		"WAL records appended (one per committed mutation).")
	mAppendBytes = obs.Default.NewCounter("proxykit_ledger_append_bytes_total",
		"Bytes of WAL frames appended, headers included.")
	mAppendErrors = obs.Default.NewCounter("proxykit_ledger_append_errors_total",
		"WAL appends refused or failed; the ledger fails closed after the first write error.")
	mFsyncSeconds = obs.Default.NewHistogram("proxykit_ledger_fsync_seconds",
		"Latency of WAL fsync calls (always mode: one per append; interval mode: one per timer tick).",
		obs.DefLatencyBuckets)
	mReplayRecords = obs.Default.NewCounter("proxykit_ledger_replay_records_total",
		"WAL records replayed during recovery at Open.")
	mTornTails = obs.Default.NewCounter("proxykit_ledger_torn_tails_total",
		"Recoveries that dropped a torn (partially written) final WAL record.")
	mSnapshots = obs.Default.NewCounterVec("proxykit_ledger_snapshot_total",
		"Snapshot attempts by outcome.", "outcome")
	mSnapshotSeconds = obs.Default.NewHistogram("proxykit_ledger_snapshot_seconds",
		"Latency of full-state snapshot commits (marshal excluded, write+rename included).",
		obs.DefLatencyBuckets)
	mSnapshotBytes = obs.Default.NewGauge("proxykit_ledger_snapshot_bytes",
		"Size of the last committed snapshot state, in bytes.")
	mCursorReadBytes = obs.Default.NewCounter("proxykit_ledger_cursor_read_bytes_total",
		"Bytes of WAL frames the shipping cursor (ReadEntries) read, file and FsyncOff buffer together.")

	mGroupCommitBatches = obs.Default.NewCounter("proxykit_ledger_group_commit_batches_total",
		"Commit cohorts flushed — one batch write + one fsync each — in FsyncAlways group-commit mode.")
	mGroupCommitRecords = obs.Default.NewHistogram("proxykit_ledger_group_commit_batch_records",
		"Records per flushed commit cohort: the fsync amortization factor.",
		batchBuckets)
	mGroupCommitSeconds = obs.Default.NewHistogram("proxykit_ledger_group_commit_seconds",
		"Leader-observed latency of a full cohort flush (batch write + fsync).",
		obs.DefLatencyBuckets)
)

// batchBuckets sizes cohort histograms: a cohort is bounded by the
// number of committers blocked during one flush, so small powers-ish of
// two cover the useful range.
var batchBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
