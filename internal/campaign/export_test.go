package campaign

import "context"

// RunShard executes one shard in-process and returns all records in
// [Lo, Hi) in trial order, journaling nothing: the shard body the
// external-executor tests wrap.
func RunShard(ctx context.Context, req ShardRequest) ([]TrialRec, error) {
	return runShardWith(ctx, req, nil)
}

// NewShardedServer is NewServer with every job split into shards
// contiguous shards, parallel at a time, each executed by run.
func NewShardedServer(dir string, opts Options, shards, parallel int, run ShardFn) (*Server, error) {
	return newServer(dir, opts, Env{Shards: shards, ShardParallel: parallel, RunShard: run})
}
