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
	"time"
)

// httpOp is one streamed POST as the client saw it.
type httpOp struct {
	status  int
	cache   string   // X-Popkit-Cache
	lines   [][]byte // every NDJSON line of the body
	bytes   int
	first   time.Duration // to the first complete line
	latency time.Duration // to the last byte
}

// newHTTPClient returns a client holding at most one connection, so a
// closed-loop benchmark client never opens more than one.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends body as JSON and reads the NDJSON response to its end,
// recording spans for the wait for headers and the streamed body.
func post(c *http.Client, url, tenant string, body any, tr *tracer, opID int) (httpOp, error) {
	var o httpOp
	buf, err := json.Marshal(body)
	if err != nil {
		return o, err
	}
	parent := tr.reserve("http.op", 0, opID)
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return o, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Popkit-Tenant", tenant)
	}
	resp, err := c.Do(req)
	if err != nil {
		return o, err
	}
	defer resp.Body.Close()
	hdr := time.Now()
	tr.add("http.headers", start, hdr, parent, opID)
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Popkit-Cache")
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if o.first == 0 {
				o.first = time.Since(start)
			}
			o.lines = append(o.lines, line)
			o.bytes += len(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return o, err
		}
	}
	end := time.Now()
	o.latency = end.Sub(start)
	tr.add("http.body", hdr, end, parent, opID)
	tr.finish(parent, start, end)
	return o, nil
}

// getJSON decodes a GET response (the servers' /metrics documents).
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// listener serves h on a loopback port until stop.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.srv.Shutdown(ctx)
	<-l.done
}
