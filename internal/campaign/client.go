package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client is the Go consumer of a campaign server's HTTP API — what the
// cmd/ drivers' -server modes are built on.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:8077".
	Base string
	// HTTP is the underlying client (no global timeout: Poll long-polls).
	HTTP *http.Client
}

// NewClient returns a Client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: &http.Client{}}
}

// do issues one JSON request. A non-2xx response is decoded from the
// apiError envelope into an error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		enc, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("campaign: client: %w", err)
		}
		body = bytes.NewReader(enc)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return fmt.Errorf("campaign: client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("campaign: client: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("campaign: client: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("campaign: server: %s", ae.Error)
		}
		return fmt.Errorf("campaign: server: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("campaign: client: decoding %s: %w", path, err)
		}
	}
	return nil
}

// Version fetches the server's build identity. A revision mismatch with
// the local buildinfo means server-mediated and inline results may come
// from different code.
func (c *Client) Version(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	err := c.do(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// Submit submits a job and returns its initial status — already done
// (Cached) when the server held the result.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Poll long-polls a job: the server delays the response until the next
// status change or the wait expires.
func (c *Client) Poll(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%s?wait=%s", id, wait), nil, &st)
	return st, err
}

// Wait long-polls until the job reaches a terminal state, feeding every
// observed snapshot to onUpdate (which may be nil).
func (c *Client) Wait(ctx context.Context, id string, onUpdate func(JobStatus)) (JobStatus, error) {
	for {
		st, err := c.Poll(ctx, id, 30*time.Second)
		if err != nil {
			return st, err
		}
		if onUpdate != nil {
			onUpdate(st)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
}

// Result fetches a done job's canonical result bytes.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	return raw, err
}

// Cancel cancels a queued or running job and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// Stream consumes a job's SSE progress stream, feeding every snapshot to
// fn (may be nil) until the terminal snapshot arrives, which it returns.
func (c *Client) Stream(ctx context.Context, id string, fn func(JobStatus)) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return JobStatus{}, fmt.Errorf("campaign: client: %w", err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return JobStatus{}, fmt.Errorf("campaign: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return JobStatus{}, fmt.Errorf("campaign: server: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var last JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &last); err != nil {
			return last, fmt.Errorf("campaign: client: bad event: %w", err)
		}
		if fn != nil {
			fn(last)
		}
		if last.State.Terminal() {
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("campaign: client: %w", err)
	}
	return last, fmt.Errorf("campaign: client: event stream ended before job %s finished", id)
}

// DispatchOpts tunes Dispatch.
type DispatchOpts struct {
	// Server, when non-empty, submits to the campaign server at this URL;
	// empty runs inline via Execute.
	Server string
	// Env configures inline execution. With Server only Env.OnProgress
	// applies — the server's own configuration governs — and Journal and
	// Budget are rejected: the server journals every job itself, and it
	// must never cache a budget-partial result.
	Env Env
}

// Dispatch runs spec either inline (via Execute) or through a campaign
// server (submit, wait, fetch). Both paths return the canonical result —
// byte-identical by construction, which is the determinism gate the cmd/
// drivers' -json and -server modes rely on.
func Dispatch(ctx context.Context, spec JobSpec, o DispatchOpts) ([]byte, error) {
	if o.Server == "" {
		return Execute(ctx, spec, o.Env)
	}
	if o.Env.Journal != "" || o.Env.Budget > 0 {
		return nil, fmt.Errorf("campaign: a server-run job takes no journal or budget")
	}
	c := NewClient(o.Server)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	fin, err := c.Wait(ctx, st.ID, func(js JobStatus) {
		if o.Env.OnProgress != nil {
			o.Env.OnProgress(Progress{Done: js.Done, Total: js.Total, Resumed: js.Resumed})
		}
	})
	if err != nil {
		return nil, err
	}
	switch fin.State {
	case JobDone:
		return c.Result(ctx, fin.ID)
	case JobFailed:
		return nil, fmt.Errorf("campaign: job %s failed: %s", fin.ID, fin.Error)
	default:
		return nil, fmt.Errorf("campaign: job %s was %s", fin.ID, fin.State)
	}
}
