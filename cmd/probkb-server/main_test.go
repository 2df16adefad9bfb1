package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"probkb"
	"probkb/internal/ingest"
	"probkb/internal/server"
)

// TestOpenResumesWithoutKB: a -persist directory that already holds a
// store is recovered without reading -kb, which may name nothing.
func TestOpenResumesWithoutKB(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	k := probkb.New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	st, err := probkb.CreateStore(dir, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	got, pst, err := openKB(filepath.Join(t.TempDir(), "missing"), dir, logger)
	if err != nil {
		t.Fatalf("resuming with a missing -kb: %v", err)
	}
	defer pst.Close()
	if n := got.Stats().Facts; n != 1 {
		t.Fatalf("recovered KB holds %d facts, want 1", n)
	}
}

// TestServeShutdownMidStream drives the process-level exit path: the
// "signal" (ctx) arrives while a client holds a POST /facts stream open
// between chunks. serve must give up on the stream after the grace,
// checkpoint under the writer lock and close the store — so the
// reopened store starts from a folded WAL and holds every acked batch.
func TestServeShutdownMidStream(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	srv := server.NewPending()
	var startGen uint32
	startup := func(ctx context.Context) (*probkb.Store, error) {
		k := probkb.New()
		k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
		k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
		st, err := probkb.CreateStore(dir, k)
		if err != nil {
			return nil, err
		}
		exp, err := k.ExpandContext(ctx, probkb.Config{Engine: probkb.SingleNode, Persist: st})
		if err != nil {
			return st, err
		}
		startGen = st.Gen()
		srv.Attach(k, exp, server.WithStore(st))
		srv.SetReady(true)
		return st, nil
	}
	ctx, signal := context.WithCancel(context.Background())
	defer signal()
	done := make(chan error, 1)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	go func() { done <- serve(ctx, ln, srv, 100*time.Millisecond, logger, startup) }()

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
	}

	pr, pw := io.Pipe()
	defer pw.Close()
	req, _ := http.NewRequest("POST", url+"/facts?stream=1", pr)
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
		}
		respCh <- resp
	}()
	var lines *bufio.Scanner
	var last ingest.Ack
	for i, name := range []string{"Freud", "Mahler", "Zweig"} {
		fmt.Fprintf(pw, `{"facts":[{"rel":"born_in","x":%q,"xClass":"Writer","y":"Vienna","yClass":"Place","probability":0.9}]}`, name)
		if lines == nil {
			resp := <-respCh
			if resp == nil {
				t.FailNow()
			}
			defer resp.Body.Close()
			lines = bufio.NewScanner(resp.Body)
		}
		if !lines.Scan() {
			t.Fatalf("no ack for chunk %d: %v", i+1, lines.Err())
		}
		if err := json.Unmarshal(lines.Bytes(), &last); err != nil || last.Batch != i+1 || last.DurableSeq == 0 {
			t.Fatalf("ack %d = %s (%v)", i+1, lines.Bytes(), err)
		}
	}

	signal() // mid-stream: the request body is still open
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after the signal")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still answering after shutdown")
	}

	re, err := probkb.OpenStore(dir)
	if err != nil {
		t.Fatalf("reopening the store serve closed: %v", err)
	}
	defer re.Close()
	if re.Gen() <= startGen || re.WALRecords() != 0 {
		t.Fatalf("exit path ran no checkpoint: gen %d (was %d), %d WAL records", re.Gen(), startGen, re.WALRecords())
	}
	exp, err := re.KB().Expand(probkb.Config{Engine: probkb.SingleNode})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Ruth_Gruber", "Freud", "Mahler", "Zweig"} {
		for _, rel := range []string{"born_in", "live_in"} {
			if len(exp.Find(rel, name, "")) != 1 {
				t.Fatalf("acked %s(%s, ·) missing from the reopened store", rel, name)
			}
		}
	}
}
