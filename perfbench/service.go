package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/ixcache"
	"repro/internal/ixdisk"
	"repro/internal/server"
)

// service is an in-process scorisd on a loopback listener.
type service struct {
	srv   *server.Server
	store *ixdisk.DirStore
	hs    *http.Server
	done  chan error
	c     *client
	// dbLoad is how long the db index took to come up from the store.
	dbLoad time.Duration
}

// serverOptions are the ORIS options the server derives for a request
// that sets none: the library defaults with the server's per-request
// worker cap.
func serverOptions(srv *server.Server) core.Options {
	opt := core.DefaultOptions()
	opt.Workers = srv.Config().RequestWorkers
	return opt
}

// warmStore saves db's ORIS index into dir, the state a restarted
// scorisd finds its store in.
func warmStore(dir string, db *bank.Bank) error {
	store, err := ixdisk.NewDirStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	store.MarkDB(db)
	o1, _ := core.DefaultOptions().IndexOptions()
	p := ixcache.Prepare(db, o1)
	return store.Save(p)
}

// startService opens the store at dir with the db-only save policy,
// registers db as a db bank, brings its index up from the store and
// starts serving.
func startService(dir string, db *bank.Bank) (*service, error) {
	store, err := ixdisk.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	// The default policy would write one index file per one-shot query
	// bank and grow the store without bound.
	store.SetSavePolicy(ixdisk.SavePolicy{DBOnly: true})
	srv := server.New(server.Config{Store: store})
	if err := srv.RegisterBank("db", db, true); err != nil {
		store.Close()
		return nil, err
	}
	o1, _ := serverOptions(srv).IndexOptions()
	t0 := time.Now()
	srv.Cache().Get(db, o1)
	load := time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	s := &service{srv: srv, store: store, dbLoad: load, done: make(chan error, 1),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.c = newClient("http://" + ln.Addr().String())
	return s, nil
}

func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.c.hc.CloseIdleConnections()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// client speaks scorisd's /v1 HTTP API over at most maxConns
// connections.
type client struct {
	base string
	hc   *http.Client
}

// maxConns matches the two issuing goroutines of the load generator.
const maxConns = 2

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// statusError is a non-200 answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func (c *client) do(method, path string, body []byte, hdr map[string]string) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, &statusError{resp.StatusCode, string(bytes.TrimSpace(b))}
	}
	return resp, nil
}

func (c *client) call(method, path string, body []byte) ([]byte, error) {
	resp, err := c.do(method, path, body, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (c *client) register(name string, fastaText []byte) error {
	_, err := c.call(http.MethodPost, "/v1/banks?name="+url.QueryEscape(name), fastaText)
	return err
}

func (c *client) deregister(name string) error {
	_, err := c.call(http.MethodDelete, "/v1/banks?name="+url.QueryEscape(name), nil)
	return err
}

func (c *client) compare(engine, query string) ([]byte, error) {
	body, _ := json.Marshal(map[string]string{"db": "db", "query": query, "engine": engine})
	return c.call(http.MethodPost, "/v1/compare", body)
}

func (c *client) batch(queries []string) ([]byte, error) {
	body, _ := json.Marshal(map[string]any{"db": "db", "queries": queries})
	return c.call(http.MethodPost, "/v1/compare/batch", body)
}

// stream runs a streamed compare and returns the body, the time to its
// first byte and the status trailer.
func (c *client) stream(query string) (body []byte, ttfb time.Duration, status string, err error) {
	req, _ := json.Marshal(map[string]any{"db": "db", "query": query, "stream": true})
	t0 := time.Now()
	resp, err := c.do(http.MethodPost, "/v1/compare", req, nil)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	one := make([]byte, 1)
	n, err := io.ReadFull(resp.Body, one)
	ttfb = time.Since(t0)
	buf.Write(one[:n])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, 0, "", err
	}
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		return nil, 0, "", err
	}
	return buf.Bytes(), ttfb, resp.Trailer.Get("X-Scoris-Status"), nil
}

func (c *client) stats() (server.Stats, error) {
	var st server.Stats
	b, err := c.call(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}
