package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// serverProc is one cordobad process under test.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	out    bytes.Buffer // cordobad's stdout and stderr, read after exit
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

var serverSeq int

// startServer starts cordobad as deployed (policy subplan, 2 workers, sf
// 0.005, data seed 42) on a random port and waits until it listens.
func startServer(bin, dir string) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	serverSeq++
	addrFile := filepath.Join(dir, fmt.Sprintf("addr-%d-%d", os.Getpid(), serverSeq))
	os.Remove(addrFile)
	s := &serverProc{exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-sf", strconv.FormatFloat(scaleFactor, 'g', -1, 64), "-seed", strconv.Itoa(dataSeed),
		"-workers", strconv.Itoa(workers), "-policy", policyName)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	s.cmd.Stdout, s.cmd.Stderr = &s.out, &s.out
	// The server must not outlive a benchmark that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cordobad: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	defer os.Remove(addrFile)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			s.addr = strings.TrimSpace(string(raw))
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("cordobad exited before listening (%v): %s", s.err, s.out.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("cordobad did not listen within a minute")
		}
	}
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, cordobad's graceful drain, and waits for the process
// to end, killing it if the drain hangs.
func (s *serverProc) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("cordobad did not drain within 30s")
	}
	if s.err != nil {
		return fmt.Errorf("cordobad: %v: %s", s.err, s.out.String())
	}
	return nil
}

// statusLost marks a request whose connection died before it was answered.
const statusLost = "lost"

// wireConn is a pipelined line-JSON connection to cordobad. Each response is
// handed to the callback registered with its request, on the connection's
// reader goroutine, with the times the request was sent and the answer
// arrived.
type wireConn struct {
	nc net.Conn

	wmu sync.Mutex
	w   *bufio.Writer

	mu      sync.Mutex
	pending map[string]call
	seq     int
	dead    bool

	readDone chan struct{}
}

type call struct {
	sent time.Time
	fn   func(resp server.Response, sent, at time.Time)
}

func dial(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{nc: nc, w: bufio.NewWriter(nc), pending: map[string]call{}, readDone: make(chan struct{})}
	go c.read()
	return c, nil
}

func (c *wireConn) read() {
	defer close(c.readDone)
	sc := bufio.NewScanner(c.nc)
	// A trace dump of the full ring is a few hundred KiB on one line.
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		at := time.Now()
		var resp server.Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			continue
		}
		c.mu.Lock()
		cl, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			cl.fn(resp, cl.sent, at)
		}
	}
	c.mu.Lock()
	c.dead = true
	lost := c.pending
	c.pending = nil
	c.mu.Unlock()
	for id, cl := range lost {
		cl.fn(server.Response{ID: id, Status: statusLost}, cl.sent, time.Now())
	}
}

// send writes one request; fn receives its response, or a response with
// status statusLost if the connection dies first.
func (c *wireConn) send(req server.Request, fn func(resp server.Response, sent, at time.Time)) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return fmt.Errorf("connection closed")
	}
	c.seq++
	req.ID = strconv.Itoa(c.seq)
	line, err := json.Marshal(req)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.pending[req.ID] = call{sent: time.Now(), fn: fn}
	c.mu.Unlock()
	c.w.Write(append(line, '\n'))
	if err := c.w.Flush(); err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return err
	}
	return nil
}

// do sends a request and waits for its response.
func (c *wireConn) do(req server.Request) (server.Response, error) {
	ch := make(chan server.Response, 1)
	if err := c.send(req, func(r server.Response, _, _ time.Time) { ch <- r }); err != nil {
		return server.Response{}, err
	}
	select {
	case r := <-ch:
		if r.Status != server.StatusOK {
			return r, fmt.Errorf("%s %s: status %s %s", req.Op, req.Family, r.Status, r.Error)
		}
		return r, nil
	case <-time.After(30 * time.Second):
		return server.Response{}, fmt.Errorf("%s %s: no response within 30s", req.Op, req.Family)
	}
}

func (c *wireConn) close() {
	c.nc.Close()
	<-c.readDone
}

func queryRequest(q query) server.Request {
	return server.Request{Family: q.family, Variant: q.variant}
}

// setupServer starts cordobad and runs one pass of all 12 variants over the
// wire, checking each row count against the reference.
func setupServer(cfg config, refs references) (*serverProc, error) {
	s, err := startServer(cfg.cordobad, cfg.dir)
	if err != nil {
		return nil, err
	}
	c, err := dial(s.addr)
	if err == nil {
		for _, q := range rotation {
			var r server.Response
			if r, err = c.do(queryRequest(q)); err != nil {
				break
			}
			if want := len(refs[q].rows); r.Rows != want {
				err = fmt.Errorf("warm pass %s: %d rows, want %d", q, r.Rows, want)
				break
			}
		}
		c.close()
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}
