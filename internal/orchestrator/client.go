package orchestrator

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client talks to a root orchestrator's HTTP control plane — what node
// agents use to register and heartbeat, and operators use to deploy SLAs.
type Client struct {
	base string
	http *http.Client
	// onAdmission receives the admission verdicts from every successful
	// heartbeat response (SetAdmissionHandler).
	onAdmission func([]ServiceAdmission)
}

// NewClient creates a control-plane client for the given base URL (e.g.
// "http://orchestrator:8600").
func NewClient(baseURL string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &Client{
		base: baseURL,
		http: &http.Client{Timeout: timeout},
	}
}

// apiErr decodes an error payload into a Go error.
func apiErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e apiError
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("orchestrator: %s (%d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("orchestrator: status %d", resp.StatusCode)
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("orchestrator: encode request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("orchestrator: build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("orchestrator: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiErr(resp)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			if err == io.EOF {
				return nil // empty body: older server, nothing to decode
			}
			return fmt.Errorf("orchestrator: decode response: %w", err)
		}
	}
	return nil
}

// Register adds this node to the orchestrator.
func (c *Client) Register(ctx context.Context, info NodeInfo) error {
	return c.do(ctx, http.MethodPost, "/api/v1/nodes", info, nil)
}

// Heartbeat reports telemetry for a node and returns the control plane's
// downlink: the admission verdicts currently in force. An empty response
// (including one from an older server replying 204) means every service
// is admitted.
func (c *Client) Heartbeat(ctx context.Context, nodeName string, status NodeStatus) (HeartbeatResponse, error) {
	var out HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/nodes/"+nodeName+"/heartbeat", status, &out)
	return out, err
}

// SetAdmissionHandler installs the callback that receives admission
// verdicts from every successful heartbeat response. It is called even
// with an empty list, so a cleared verdict set resets enforcement to
// admit. Install before StartHeartbeats.
func (c *Client) SetAdmissionHandler(fn func([]ServiceAdmission)) { c.onAdmission = fn }

// StartHeartbeats registers the node and sends telemetry on the interval
// until ctx is cancelled. status is sampled on every beat. Errors are
// delivered to onErr (which may be nil).
func (c *Client) StartHeartbeats(ctx context.Context, info NodeInfo, interval time.Duration,
	status func() NodeStatus, onErr func(error)) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if status == nil {
		status = func() NodeStatus { return NodeStatus{} }
	}
	if err := c.Register(ctx, info); err != nil {
		return err
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				st := status()
				if st.LastHeartbeat.IsZero() {
					st.LastHeartbeat = time.Now()
				}
				resp, err := c.Heartbeat(ctx, info.Name, st)
				if err != nil {
					if onErr != nil {
						onErr(err)
					}
					continue
				}
				if c.onAdmission != nil {
					c.onAdmission(resp.Admissions)
				}
			}
		}
	}()
	return nil
}
