package trace

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// spillPattern names the temp files streamed traces spill to.
const spillPattern = "graphpim-spill-*.gpimtrc2"

// createSpill creates an empty temp file in os.TempDir(). Its error is
// one line naming the directory, since that is what a user must fix.
func createSpill() (*os.File, error) {
	f, err := os.CreateTemp("", spillPattern)
	if err != nil {
		var pe *fs.PathError
		if errors.As(err, &pe) {
			err = pe.Err
		}
		return nil, fmt.Errorf("temp directory %s is not writable: %v", os.TempDir(), err)
	}
	return f, nil
}

// NewSpill creates an unlinked temp file and starts a v2 writer for
// threads threads over it; Finalize (via NewStreamingBuilder) returns a
// Stream reading the file. Unlinking at once means no crash leaves a
// spill behind. Close the file once no cursor over the Stream reads.
func NewSpill(threads int) (*os.File, *StreamWriter, error) {
	f, err := createSpill()
	if err != nil {
		return nil, nil, err
	}
	os.Remove(f.Name())
	sw, err := NewStreamWriter(f, threads, DefaultChunkRecords)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, sw, nil
}

// CheckSpillDir reports whether spill files can be created in
// os.TempDir(), so a command can fail with one line before it traces.
func CheckSpillDir() error {
	f, err := createSpill()
	if err != nil {
		return err
	}
	os.Remove(f.Name())
	return f.Close()
}
