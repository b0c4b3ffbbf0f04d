package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadQuery feeds the router's front-door decode — the one place it
// parses client bytes — arbitrary bodies: reading one and deriving its
// routing key must never panic, and because the key is read off the
// decoded request alone, a body and its re-marshalled QueryRequest must
// route by the same key (else a client could steer a query off its owner
// by respelling it). Seeds: testdata/fuzz/FuzzReadQuery.
func FuzzReadQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body))
		_, req, ok := readQuery(httptest.NewRecorder(), r)
		if !ok {
			return
		}
		key := queryKeyOf(req)
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request does not re-marshal: %v", err)
		}
		r = httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(again))
		_, req2, ok := readQuery(httptest.NewRecorder(), r)
		if !ok {
			t.Fatalf("re-marshalled request %s is refused", again)
		}
		if key2 := queryKeyOf(req2); key2 != key {
			t.Fatalf("body %q routes by %q, its re-marshalled form %s by %q", body, key, again, key2)
		}
	})
}

// FuzzReadManifest feeds the manifest reader — replicas and publishers
// parse this file off a shared volume — arbitrary bytes: it must never
// panic, and a manifest it accepts must survive writeManifest unchanged,
// or a publish (read, edit, write back) would corrupt entries it never
// touched. Seeds: testdata/fuzz/FuzzReadManifest.
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), manifestFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(path)
		if err != nil {
			return
		}
		if err := writeManifest(path, &m); err != nil {
			t.Fatalf("accepted manifest does not write back: %v", err)
		}
		back, err := readManifest(path)
		if err != nil {
			t.Fatalf("written manifest is refused: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("manifest changed across writeManifest:\nwrote %+v\nread  %+v", m, back)
		}
	})
}
