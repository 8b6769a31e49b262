package campaign

import (
	"context"
	"net/http"
)

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

// Version fetches the server's build identity. A revision mismatch with
// the local buildinfo means server-mediated and inline results may come
// from different code.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	err := c.do(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// Cancel cancels a queued or running job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st)
	return st, err
}
