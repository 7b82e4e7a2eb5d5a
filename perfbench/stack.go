package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// stack is one running copy of the system under test: a serve.Server behind
// its HTTP handler on a loopback listener, optionally fronted by a
// shard.Router with that server as its only shard, and the client that
// drives it.
type stack struct {
	srv      *serve.Server
	handler  http.Handler
	shardTS  *httptest.Server
	router   *shard.Router
	routerTS *httptest.Server
	front    string // base URL the workload talks to
	direct   string // base URL of the shard itself
	client   *http.Client
}

// newStack starts a server (and a router in front of it when withRouter),
// with a client limited to lanes connections.
func newStack(withRouter bool, lanes int) (*stack, error) {
	st := &stack{srv: serve.New(serve.Config{})}
	st.handler = serve.NewHandler(st.srv)
	st.shardTS = httptest.NewServer(st.handler)
	st.direct = st.shardTS.URL
	st.front = st.direct
	if withRouter {
		if err := st.addRouter(); err != nil {
			st.close()
			return nil, err
		}
		st.front = st.routerTS.URL
	}
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     lanes,
		MaxIdleConnsPerHost: lanes,
		DisableCompression:  true,
	}}
	return st, nil
}

// addRouter starts a one-shard router in front of the server.
func (st *stack) addRouter() error {
	rt, err := shard.NewRouter(shard.Config{Shards: []string{st.shardTS.URL}})
	if err != nil {
		return fmt.Errorf("starting router: %w", err)
	}
	st.router = rt
	st.routerTS = httptest.NewServer(shard.NewHandler(rt))
	return nil
}

func (st *stack) close() {
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	if st.routerTS != nil {
		st.routerTS.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	st.shardTS.Close()
	st.srv.Close()
}

// call sends one request to base+path and reads the whole reply. It returns
// the status, the body and the time the body was fully read.
func (st *stack) call(base, method, path, ctype string, body []byte) (int, []byte, time.Time, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	end := time.Now()
	resp.Body.Close()
	return resp.StatusCode, data, end, err
}

// callJSON is call for setup requests: it requires a 2xx reply and decodes
// it into out.
func (st *stack) callJSON(method, path, ctype string, body []byte, out any) error {
	status, data, _, err := st.call(st.front, method, path, ctype, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}
