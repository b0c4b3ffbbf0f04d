package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/holisticim/holisticim/internal/service"
)

// opTimeout is how long any one request (and any one job follow) may
// take before it counts as failed.
const opTimeout = 10 * time.Second

// endpoint is an http.Handler served on a loopback listener.
type endpoint struct {
	url string
	srv *http.Server
	ln  net.Listener
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, ln: ln}
	// Serve returns ErrServerClosed once close() shuts the server down;
	// there is nothing else to report from it.
	go func() { _ = e.srv.Serve(ln) }()
	return e, nil
}

func (e *endpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
}

// client issues the load generator's requests over keep-alive
// connections, at most conns of them.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{http: &http.Client{Transport: tr, Timeout: opTimeout}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) post(path, body string) (int, []byte, error) {
	return c.do(http.MethodPost, path, body)
}

func (c *client) get(path string) (int, []byte, error) { return c.do(http.MethodGet, path, "") }

// followJob reads GET /v2/jobs/{id}/events to the end of the stream and
// returns the final event, which carries the terminal state and answer.
func (c *client) followJob(id string) (service.QueryResponse, error) {
	var final service.QueryResponse
	resp, err := c.http.Get(c.base + "/v2/jobs/" + id + "/events")
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var last []byte
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	if err := json.Unmarshal(last, &final); err != nil {
		return final, fmt.Errorf("job %s final event: %w", id, err)
	}
	if final.State != service.StateDone {
		return final, fmt.Errorf("job %s ended %s: %s", id, final.State, final.Error)
	}
	return final, nil
}

// query posts a /v2/query body and returns the completed response,
// following the job when the server answers 202.
func (c *client) query(body string) (service.QueryResponse, error) {
	var resp service.QueryResponse
	status, data, err := c.post("/v2/query", body)
	if err != nil {
		return resp, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return resp, fmt.Errorf("/v2/query: status %d: %s", status, data)
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, err
	}
	if status == http.StatusAccepted {
		return c.followJob(resp.JobID)
	}
	return resp, nil
}

// newServer returns a service.Server with the graph file registered
// under graphName, as `imserver -graph` would at start-up.
func newServer(graphPath string, cfg service.Config) (*service.Server, error) {
	srv := service.New(cfg)
	if err := srv.Registry().LoadFile(graphName, graphPath); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}
