package cas

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestChaosCorruptBlobRefetchedFromHealthyPeer is the CAS half of the
// fabric's failure story: a torn/corrupt blob on one node is quarantined —
// never served — and a multi-source client transparently refetches the
// same content from a healthy peer.
func TestChaosCorruptBlobRefetchedFromHealthyPeer(t *testing.T) {
	blob := []byte("result bytes: pure function of the job")
	sum := Sum(blob)

	// Two peers hold the blob; one's copy is torn on disk (a crash
	// mid-write that became visible).
	sickDir := t.TempDir()
	sick := NewStore(sickDir)
	if _, err := sick.Put(blob); err != nil {
		t.Fatalf("sick Put: %v", err)
	}
	if err := os.WriteFile(filepath.Join(sickDir, "blobs", sum), blob[:len(blob)/2], 0o644); err != nil {
		t.Fatalf("tear: %v", err)
	}
	sick = NewStore(sickDir) // drop the memory copy, like a restart

	healthy := NewStore(t.TempDir())
	if _, err := healthy.Put(blob); err != nil {
		t.Fatalf("healthy Put: %v", err)
	}

	sickSrv := httptest.NewServer(NewServer(sick, "/v1/cas"))
	defer sickSrv.Close()
	healthySrv := httptest.NewServer(NewServer(healthy, "/v1/cas"))
	defer healthySrv.Close()

	// The sick peer is first in line: its torn copy must 404 (quarantined,
	// not served), and the client must land on the healthy peer's bytes.
	c := NewClient(nil, sickSrv.URL+"/v1/cas", healthySrv.URL+"/v1/cas")
	got, err := c.Fetch(context.Background(), sum)
	if err != nil {
		t.Fatalf("Fetch across peers: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("Fetch returned wrong bytes: %q", got)
	}
	if sick.Stats().Corrupt != 1 {
		t.Fatalf("sick peer Corrupt = %d, want 1", sick.Stats().Corrupt)
	}
	if _, err := os.Stat(filepath.Join(sickDir, "quarantine", sum)); err != nil {
		t.Fatalf("torn blob not quarantined: %v", err)
	}

	// The sick peer can repair itself by re-putting the verified bytes.
	if _, err := sick.Put(got); err != nil {
		t.Fatalf("repair Put: %v", err)
	}
	back, err := sick.Get(sum)
	if err != nil || !bytes.Equal(back, blob) {
		t.Fatalf("Get after repair = %q, %v", back, err)
	}
}
