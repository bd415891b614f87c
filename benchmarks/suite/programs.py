"""The mini-Chapel programs the benchmark compiles, as source text.

These are the benchmark's own copies, so the workloads stay fixed when the
example applications under ``repro.apps`` change.  k-means is the paper's
Figure 3, PCA its two reduction phases, ``FIGURE6`` the nested dataset of
Figures 6-8.
"""

KMEANS = """
record Centroid {
  var coord: [1..dim] real;
}

class kmeansReduction : ReduceScanOp {
  var k: int;
  var dim: int;
  var centroids: [1..k] Centroid;

  def accumulate(point: [1..dim] real) {
    var minDist: real = 1.0e300;
    var minIdx: int = 1;
    for c in 1..k {
      var dist: real = 0.0;
      for d in 1..dim {
        var diff: real = point[d] - centroids[c].coord[d];
        dist = dist + diff * diff;
      }
      if (dist < minDist) {
        minDist = dist;
        minIdx = c;
      }
    }
    roAdd(minIdx - 1, 0, 1.0);
    for d in 1..dim {
      roAdd(minIdx - 1, d, point[d]);
    }
    roAdd(minIdx - 1, dim + 1, minDist);
  }
}
"""

PCA_MEAN = """
class pcaMeanReduction : ReduceScanOp {
  var m: int;

  def accumulate(col: [1..m] real) {
    for r in 1..m {
      roAdd(0, r - 1, col[r]);
    }
    roAdd(1, 0, 1.0);
  }
}
"""

PCA_COV = """
class pcaCovReduction : ReduceScanOp {
  var m: int;
  var mean: [1..m] real;

  def accumulate(col: [1..m] real) {
    for a in 1..m {
      var ca: real = col[a] - mean[a];
      for b in a..m {
        var cb: real = col[b] - mean[b];
        roAdd(a - 1, b - 1, ca * cb);
      }
    }
  }
}
"""

HISTOGRAM = """
class histogramReduction : ReduceScanOp {
  var bins: int;
  var lo: real;
  var width: real;

  def accumulate(x: real) {
    var b: int = toInt((x - lo) / width);
    if (b < 0) { b = 0; }
    if (b > bins - 1) { b = bins - 1; }
    roAdd(b, 0, 1.0);
    roAdd(b, 1, x);
  }
}
"""

# The group index depends on the element position (elemIdx), the weight on
# a bounded gather from a lookup table.
WINDOWED = """
class windowedReduction : ReduceScanOp {
  var win: int;
  var nw: int;
  var nb: int;
  var lo: real;
  var width: real;
  var scale: [1..nb] real;

  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > nw - 1) { w = nw - 1; }
    var b: int = toInt((x - lo) / width);
    if (b < 0) { b = 0; }
    if (b > nb - 1) { b = nb - 1; }
    roAdd(w, 0, 1.0);
    roAdd(w, 1, x * scale[b + 1]);
  }
}
"""

# Non-invertible: retracting a window's minimum forces a replay.
WINDOW_MIN = """
class windowMin : ReduceScanOp {
  def accumulate(x: real) {
    var w: int = toInt(elemIdx() / win);
    if (w > numWin - 1) { w = numWin - 1; }
    roMin(w, 0, x);
  }
}
"""

POINT_SUM = """
record Point {
  var coord: [1..4] real;
  var w: real;
}

class weightedSum : ReduceScanOp {
  def accumulate(p: Point) {
    for d in 1..4 {
      roAdd(0, d - 1, p.coord[d] * p.w);
    }
    roAdd(1, 0, p.w);
  }
}
"""

FIGURE6 = """
record A {
  var a1: [1..5] real;
  var a2: int;
}

record B {
  var b1: [1..4] A;
  var b2: int;
}

class nestedSum : ReduceScanOp {
  def accumulate(b: B) {
    for j in 1..4 {
      for k in 1..5 {
        roAdd(0, 0, b.b1[j].a1[k]);
      }
    }
    roAdd(0, 1, 1.0);
  }
}
"""
