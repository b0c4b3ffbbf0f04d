package holisticim

import (
	"github.com/holisticim/holisticim/internal/live"
	"github.com/holisticim/holisticim/internal/sketch"
)

// Live-graph surface: versioned edge mutations over an otherwise
// immutable Graph, paired with incremental RR-sketch repair. A LiveGraph
// wraps a snapshot; Apply produces the next immutable snapshot plus the
// batch's version and dirty-node set; Sketch.Repair consumes exactly
// that pair to resynchronize an index without rebuilding it.
type (
	// LiveGraph is a versioned lineage of immutable Graph snapshots.
	LiveGraph = live.Graph
	// EdgeOp is one mutation in a batch: add, remove or reweight an arc.
	EdgeOp = live.EdgeOp
	// EdgeOpKind discriminates EdgeOp operations.
	EdgeOpKind = live.OpKind
	// ApplyOptions tunes one Apply batch.
	ApplyOptions = live.ApplyOptions
	// BatchResult reports an applied batch: new version, dirty nodes,
	// snapshot shape.
	BatchResult = live.BatchResult
	// LiveOptions configures a LiveGraph wrapper (no fields today).
	LiveOptions = live.Options

	// SketchRepairOptions tunes Sketch.Repair (workers).
	SketchRepairOptions = sketch.RepairOptions
	// SketchRepairStats reports what one Sketch.Repair call did.
	SketchRepairStats = sketch.RepairStats
)

// Edge-op kinds.
const (
	OpAddEdge      = live.OpAdd
	OpRemoveEdge   = live.OpRemove
	OpReweightEdge = live.OpReweight
)

// WrapLive starts a versioned lineage at a graph snapshot.
func WrapLive(g *Graph, opts LiveOptions) *LiveGraph { return live.Wrap(g, opts) }
