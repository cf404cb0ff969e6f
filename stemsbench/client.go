package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/tuple"
	"repro/internal/value"
)

// stemsd is one running stemsd child process and the HTTP client that
// drives it.
type stemsd struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	stderr *tailBuffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// tailBuffer keeps the last few KiB the server logged, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startStemsd starts the binary with the given extra flags on a free
// loopback port, with dataDir as its REGISTER root, and waits until /readyz
// answers. conns caps the client's connections to the server.
func startStemsd(bin, dataDir string, flags []string, conns int) (*stemsd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, flags...)
	s := &stemsd{
		cmd:    exec.Command(bin, args...),
		url:    "http://" + addr,
		stderr: &tailBuffer{},
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	s.cmd.Stderr = s.stderr
	// The server must not outlive the benchmark, whatever ends it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stemsd: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("stemsd exited before it was ready: %v\n%s", s.err, s.stderr)
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("stemsd not ready after 30s\n%s", s.stderr)
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain takes too long.
func (s *stemsd) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
		if s.err != nil {
			return fmt.Errorf("stemsd exited with %v\n%s", s.err, s.stderr)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("stemsd did not drain within 20s")
	}
}

func (s *stemsd) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// rssMB reads one of the server's memory figures from /proc, in MB:
// VmRSS (resident now) or VmHWM (peak resident).
func (s *stemsd) rssMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// metrics scrapes the unlabeled samples of /metrics.
func (s *stemsd) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// post sends one JSON body and returns the response, or an error for a
// transport failure or a non-200 status.
func (s *stemsd) post(ctx context.Context, path string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// statement sends a statement whose whole answer is one JSON object
// (REGISTER, PREPARE) and returns the object.
func (s *stemsd) statement(ctx context.Context, text string) (map[string]any, error) {
	resp, err := s.post(ctx, "/query", map[string]any{"sql": text})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if e, ok := out["error"]; ok {
		return nil, fmt.Errorf("in-band error: %v", e)
	}
	return out, nil
}

// trailer is the {"done":true,...} line that ends a query's stream.
type trailer struct {
	Rows         int     `json:"rows"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	QueueMS      float64 `json:"queue_ms"`
	RoutingSteps float64 `json:"routing_steps"`
	StemBuilds   float64 `json:"stem_builds"`
}

// queryResult is one timed query round trip.
type queryResult struct {
	rt       time.Duration // send until the trailer is read
	firstRow time.Duration // send until the first row is read; -1 if none
	trailer  trailer
	tally    tally
}

// lineReader yields NDJSON lines of any length.
type lineReader struct {
	r   *bufio.Reader
	buf []byte
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next line without its newline; the slice is valid until
// the following call.
func (l *lineReader) next() ([]byte, error) {
	line, err := l.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		l.buf = append(l.buf[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = l.r.ReadSlice('\n')
			l.buf = append(l.buf, line...)
		}
		line = l.buf
	}
	if err != nil {
		if errors.Is(err, io.EOF) && len(line) > 0 {
			return line, nil
		}
		return nil, err
	}
	return line[:len(line)-1], nil
}

var (
	rowPrefix      = []byte(`{"row":`)
	donePrefix     = []byte(`{"done":`)
	errorPrefix    = []byte(`{"error"`)
	snapshotPrefix = []byte(`{"snapshot":`)
)

// query sends one SELECT or EXECUTE and reads its whole stream, tallying
// rows against e.
func (s *stemsd) query(ctx context.Context, text string, e *expected) (queryResult, error) {
	res := queryResult{firstRow: -1}
	start := time.Now()
	resp, err := s.post(ctx, "/query", map[string]any{"sql": text})
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	lr := newLineReader(resp.Body)
	for {
		line, err := lr.next()
		if err != nil {
			return res, fmt.Errorf("stream ended without a trailer: %w", err)
		}
		switch {
		case bytes.HasPrefix(line, rowPrefix):
			if res.firstRow < 0 {
				res.firstRow = time.Since(start)
			}
			res.tally.addRow(e, line)
		case bytes.HasPrefix(line, donePrefix):
			res.rt = time.Since(start)
			if err := json.Unmarshal(line, &res.trailer); err != nil {
				return res, fmt.Errorf("bad trailer %q: %w", line, err)
			}
			if res.trailer.Rows != res.tally.base.n+sumHits(res.tally.hits) {
				return res, fmt.Errorf("trailer counts %d rows, stream had %d", res.trailer.Rows, res.tally.base.n+sumHits(res.tally.hits))
			}
			return res, nil
		case bytes.HasPrefix(line, errorPrefix):
			return res, fmt.Errorf("in-band error: %s", line)
		}
	}
}

func sumHits(h map[int]int) int {
	n := 0
	for _, c := range h {
		n += c
	}
	return n
}

// insertBody returns the request for the i-th insert: even inserts use
// POST /insert, odd ones an INSERT statement through POST /query.
func insertBody(table string, i int, row tuple.Row) (path string, body any) {
	if i%2 == 0 {
		vals := make([]any, len(row))
		for j, v := range row {
			if v.K == value.Int {
				vals[j] = v.I
			} else {
				vals[j] = v.S
			}
		}
		return "/insert", map[string]any{"table": table, "rows": [][]any{vals}}
	}
	lits := make([]string, len(row))
	for j, v := range row {
		if v.K == value.Int {
			lits[j] = strconv.FormatInt(v.I, 10)
		} else {
			lits[j] = "'" + v.S + "'"
		}
	}
	return "/query", map[string]any{"sql": fmt.Sprintf("INSERT INTO %s VALUES (%s)", table, strings.Join(lits, ", "))}
}

// insert sends one single-row insert and checks its acknowledgement.
func (s *stemsd) insert(ctx context.Context, table string, i int, row tuple.Row) error {
	path, body := insertBody(table, i, row)
	resp, err := s.post(ctx, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ack struct {
		Inserted int    `json:"inserted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return fmt.Errorf("bad insert acknowledgement: %w", err)
	}
	if ack.Error != "" || ack.Inserted != 1 {
		return fmt.Errorf("insert acknowledged %d rows (error %q)", ack.Inserted, ack.Error)
	}
	return nil
}

// subscription is an open standing query.
type subscription struct {
	cancel context.CancelFunc
	body   io.Closer
	lines  *lineReader
}

// subscribe opens a standing query and reads its snapshot up to the
// {"snapshot":true} marker, tallying snapshot rows against e.
func (s *stemsd) subscribe(text string, e *expected) (*subscription, tally, error) {
	var t tally
	ctx, cancel := context.WithCancel(context.Background())
	resp, err := s.post(ctx, "/query", map[string]any{"sql": text, "subscribe": true})
	if err != nil {
		cancel()
		return nil, t, err
	}
	sub := &subscription{cancel: cancel, body: resp.Body, lines: newLineReader(resp.Body)}
	for {
		line, err := sub.lines.next()
		if err != nil {
			sub.close()
			return nil, t, fmt.Errorf("subscription ended before its snapshot marker: %w", err)
		}
		switch {
		case bytes.HasPrefix(line, rowPrefix):
			t.addRow(e, line)
		case bytes.HasPrefix(line, snapshotPrefix):
			return sub, t, nil
		default:
			sub.close()
			return nil, t, fmt.Errorf("unexpected subscription line %q", line)
		}
	}
}

func (sub *subscription) close() {
	sub.cancel()
	sub.body.Close()
}
