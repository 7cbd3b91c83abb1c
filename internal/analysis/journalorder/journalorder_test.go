package journalorder_test

import (
	"testing"

	"repro/internal/analysis/analyzertest"
	"repro/internal/analysis/journalorder"
)

func TestJournalorder(t *testing.T) {
	a := journalorder.New(journalorder.Config{
		Mutators:   []string{"jo/store.DB.Put", "jo.op.apply"},
		JournalFns: []string{"jo.Server.journal"},
	})
	analyzertest.Run(t, "testdata/src", "jo", a)
}
