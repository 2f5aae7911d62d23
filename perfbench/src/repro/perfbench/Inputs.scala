package repro.perfbench

import repro.core.RsmiConfig
import repro.data.SpatialData
import repro.harness.Harness
import repro.spatial.{Point, Rect}

/** One benchmark workload. Every workload runs every phase with the
  * same shares of each round, so each run reports every metric; the
  * workload picks the data and the build path.
  *
  * @param sparkBuild set up with `RsmiSpark.build` + `RsmiFormat.write`
  *                   instead of `RsmiBuilder.build`
  */
final case class Workload(
    name: String,
    dist: SpatialData.Dist,
    n: Int,
    cfg: RsmiConfig,
    sparkBuild: Boolean)

object Workloads {
  /** B = 100 and N = 1 000, the repo's default experiment config
    * (`Experiments.defaultCfg`). The Spark workload uses `RsmiConfig()`
    * (N = 10 000), as the Spark build job does.
    */
  private val localCfg = RsmiConfig(N = 1000)

  val all: Seq[Workload] = Seq(
    Workload("point-skewed", SpatialData.Skewed, 50000, localCfg, sparkBuild = false),
    Workload("spark-osm", SpatialData.OsmLike, 50000, RsmiConfig(), sparkBuild = true))

  def byName(s: String): Option[Workload] = all.find(_.name == s)
}

/** Fractions of each half-second round for the lookup, KDB lookup and
  * window/kNN phases. RSMI and KDB lookups get equal slices, so both
  * see the host for as long. Scans run a fixed number per round
  * (`Sizes.scansPerRound`) after these phases.
  */
object Shares {
  val point = 0.10
  val kdb = 0.10
  val windowKnn = 0.30
}

/** How many queries of each kind a query set holds. */
final case class SetSizes(points: Int, windows: Int, knn: Int, scans: Int)

object Sizes {
  /** Distinct queries of the timed rounds (taken in turn). */
  val timed = SetSizes(points = 10000, windows = 8000, knn = 8000, scans = 256)
  /** The warm-up sample, drawn with another seed than the timed one. */
  val warmup = SetSizes(points = 10000, windows = 4000, knn = 4000, scans = 80)
  val k = 25
  /** Window area as a share of the unit square (0.01 %). */
  val windowArea = 1e-4
  /** Scans per round. A fixed count, not a share of the round: scans
    * keep getting faster for several hundred calls in a JVM, and with a
    * time share a faster host ran more of them and moved further down
    * that slope. With a fixed count, every run times the same calls.
    */
  val scansPerRound = 4
  /** Untimed rounds of the timed loop that end the warm-up. */
  val warmupRounds = 4
  val setupReps = 3
  /** Base points and inserts of the throwaway warm-up index: enough
    * insert calls for the JIT to finish compiling the insert path.
    */
  val insertWarmupBase = 10000
  val insertWarmup = 20000
}

/** Seeds of the generated inputs. The data set of a workload is fixed
  * (the repo's default generator seed), so a run's figures differ from
  * another seed's only through the query, warm-up and insert streams,
  * which all derive from the run's seed.
  */
final case class Seeds(run: Long) {
  val data: Long = 42L
  val queries: Long = run * 1000003L + 1
  val warmup: Long = run * 1000003L + 2
  val inserts: Long = run * 1000003L + 3
}

/** A query sample drawn from the data (§6.1: queries follow the data). */
final class QuerySet(pts: Array[Point], seed: Long, size: SetSizes) {
  val points: Array[Point] = SpatialData.queryCenters(pts, size.points, seed)
  val windows: Array[Rect] = SpatialData.queryCenters(pts, size.windows, seed + 11)
    .map(q => Harness.window(q.x, q.y, Sizes.windowArea))
  val knn: Array[Point] = SpatialData.queryCenters(pts, size.knn, seed + 13)
  val scans: Array[Rect] = SpatialData.queryCenters(pts, size.scans, seed + 17)
    .map(q => Harness.window(q.x, q.y, Sizes.windowArea))
}

/** Exact answers over a uniform grid of cells. Windows visit only the
  * overlapping cells and kNN expands ring by ring, so truth costs a
  * small fraction of an O(n) pass per query.
  */
final class GridTruth(pts: Array[Point]) {
  private val g = math.max(1, math.sqrt(pts.length / 16.0).toInt)
  private val start = new Array[Int](g * g + 1)
  private val byCell: Array[Point] = {
    val cell = pts.map(p => cellOf(p.x, p.y))
    cell.foreach(c => start(c + 1) += 1)
    var c = 0
    while (c < g * g) { start(c + 1) += start(c); c += 1 }
    val fill = start.clone()
    val out = new Array[Point](pts.length)
    var i = 0
    while (i < pts.length) { out(fill(cell(i))) = pts(i); fill(cell(i)) += 1; i += 1 }
    out
  }

  private def coord(v: Double): Int = math.min(g - 1, math.max(0, (v * g).toInt))
  private def cellOf(x: Double, y: Double): Int = coord(x) * g + coord(y)

  private def foreachIn(r: Rect)(f: Point => Unit): Unit = {
    var cx = coord(r.xlo)
    while (cx <= coord(r.xhi)) {
      var cy = coord(r.ylo)
      while (cy <= coord(r.yhi)) {
        val c = cx * g + cy
        var i = start(c)
        while (i < start(c + 1)) { if (r.contains(byCell(i))) f(byCell(i)); i += 1 }
        cy += 1
      }
      cx += 1
    }
  }

  /** Sorted ids of the points inside `r`. */
  def windowIds(r: Rect): Array[Long] = {
    val b = Array.newBuilder[Long]
    foreachIn(r)(p => b += p.id)
    val ids = b.result()
    java.util.Arrays.sort(ids)
    ids
  }

  def count(r: Rect): Long = {
    var c = 0L
    foreachIn(r)(_ => c += 1)
    c
  }

  /** Exact k nearest ids and the k-th squared distance (for the
    * tie-tolerant recall of `Experiments.measureKnnQueries`).
    */
  def knn(qx: Double, qy: Double, k: Int): (Set[Long], Double) = {
    val heap = new java.util.PriorityQueue[Point](k,
      (a: Point, b: Point) => java.lang.Double.compare(b.dist2(qx, qy), a.dist2(qx, qy)))
    val cx = coord(qx)
    val cy = coord(qy)
    var ring = 0
    var done = false
    while (!done) {
      var x = cx - ring
      while (x <= cx + ring) {
        var y = cy - ring
        while (y <= cy + ring) {
          val onRing = math.abs(x - cx) == ring || math.abs(y - cy) == ring
          if (onRing && x >= 0 && x < g && y >= 0 && y < g) {
            val c = x * g + y
            var i = start(c)
            while (i < start(c + 1)) {
              val p = byCell(i)
              if (heap.size < k) heap.add(p)
              else if (p.dist2(qx, qy) < heap.peek.dist2(qx, qy)) { heap.poll(); heap.add(p) }
              i += 1
            }
          }
          y += 1
        }
        x += 1
      }
      // Every unvisited point lies at least `ring` cell widths away.
      val reach = ring.toDouble / g
      done = ring >= g || (heap.size == k && heap.peek.dist2(qx, qy) <= reach * reach)
      ring += 1
    }
    val kth2 = heap.peek.dist2(qx, qy)
    val ids = Set.newBuilder[Long]
    while (!heap.isEmpty) ids += heap.poll().id
    (ids.result(), kth2)
  }
}
