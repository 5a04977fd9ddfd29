package obs

// The stats snapshots a node reports about its caches, its durable store
// and its replica repair: the producers (vstore, the server's view cache,
// kvstore, cluster) fill them, and the status op carries them to a client
// as they are.

// CacheStats are a cache's cumulative hit/miss/eviction counts plus its
// current and maximum sizes.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Max       int    `json:"max"`
}

// DurabilityStats reports a durable store's WAL, snapshot and recovery
// counters.
type DurabilityStats struct {
	Epoch              uint64 `json:"epoch"`
	Generation         uint64 `json:"generation"`
	Seq                uint64 `json:"seq"`
	FirstRetainedSeq   uint64 `json:"first_retained_seq"`
	WALBytes           int64  `json:"wal_bytes"`
	WALSegments        int64  `json:"wal_segments"`
	SegmentBytes       int64  `json:"segment_bytes"`
	Fsyncs             uint64 `json:"fsyncs"`
	FsyncMeanUs        int64  `json:"fsync_mean_us"`
	FsyncP99Us         int64  `json:"fsync_p99_us"`
	GroupCommitRecords uint64 `json:"group_commit_records"`
	Snapshots          uint64 `json:"snapshots"`
	SnapshotErrors     uint64 `json:"snapshot_errors,omitempty"`
	LastSnapshotBytes  int64  `json:"last_snapshot_bytes,omitempty"`
	LastSnapshotUs     int64  `json:"last_snapshot_us,omitempty"`
	// LastCheckpointStallUs is the write-lock hold of the last
	// checkpoint's log rotation — the only window a checkpoint blocks
	// commits now that the snapshot itself streams under chunked read
	// locks.
	LastCheckpointStallUs  int64  `json:"last_checkpoint_stall_us,omitempty"`
	CheckpointStallTotalUs int64  `json:"checkpoint_stall_total_us,omitempty"`
	ReplayedRecords        uint64 `json:"replayed_records"`
	ReplayTornBytes        int64  `json:"replay_torn_bytes,omitempty"`
	RecoveryUs             int64  `json:"recovery_us"`
}

// ReplStats is a snapshot of the repair subsystem's counters plus the
// current replication lag view.
type ReplStats struct {
	CatchUpBatches     uint64            `json:"catch_up_batches"`
	CatchUpRecords     uint64            `json:"catch_up_records"`
	CatchUpSkipped     uint64            `json:"catch_up_skipped"`
	StateTransfers     uint64            `json:"state_transfers"`
	AntiEntropyRounds  uint64            `json:"anti_entropy_rounds"`
	AntiEntropyRepairs uint64            `json:"anti_entropy_repairs"`
	FetchedKeys        uint64            `json:"fetched_keys"`
	MergeDeletes       uint64            `json:"merge_deletes"`
	LastCatchUpUs      int64             `json:"last_catch_up_us"`
	MaxLag             uint64            `json:"max_lag"`
	PeerLags           map[string]uint64 `json:"peer_lags,omitempty"`
}
