package repro.perfbench

import java.io.{BufferedWriter, FileWriter}

/** Growable sample of per-operation latencies in nanoseconds, split
  * into the rounds of the timed loop.
  */
final class Latencies {
  private var a = new Array[Long](1 << 14)
  private var n = 0
  private val roundEnds = scala.collection.mutable.ArrayBuffer.empty[Int]

  def add(ns: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
    a(n) = ns
    n += 1
  }

  def count: Int = n

  def mean: Double = {
    var sum = 0.0
    var i = 0
    while (i < n) { sum += a(i); i += 1 }
    sum / n
  }

  /** Closes the current round. */
  def endRound(): Unit = if (roundEnds.lastOption.getOrElse(0) < n) roundEnds += n

  /** Nearest-rank percentiles (p in (0, 1]) of the whole sample, in ns. */
  def percentiles(ps: Double*): Seq[Double] = percentilesOf(0, n, ps)

  /** Per percentile, the mean over rounds of each round's percentile.
    * The host alternates between a fast and a slow state every second
    * or so; a mean moves with the share of slow rounds, where a median
    * jumps from one state to the other.
    */
  def roundMeans(ps: Double*): Seq[Double] = {
    val bounds = (0 +: roundEnds.toSeq).zip(roundEnds.toSeq)
    val perRound = bounds.map { case (lo, hi) => percentilesOf(lo, hi, ps) }
    ps.indices.map(j => perRound.map(_(j)).sum / perRound.size)
  }

  def perRound(p: Double): Seq[Double] = {
    val bounds = (0 +: roundEnds.toSeq).zip(roundEnds.toSeq)
    bounds.map { case (lo, hi) => percentilesOf(lo, hi, Seq(p)).head }
  }

  def raw: Seq[Double] = a.take(n).toSeq.map(_.toDouble)

  private def percentilesOf(lo: Int, hi: Int, ps: Seq[Double]): Seq[Double] = {
    require(hi > lo, "no samples")
    val s = java.util.Arrays.copyOfRange(a, lo, hi)
    java.util.Arrays.sort(s)
    ps.map(p => s(math.max(0, math.ceil(p * s.length).toInt - 1)).toDouble)
  }
}

/** Span names recorded by the traced run; one constant per layer
  * boundary the benchmark wraps.
  */
object Span {
  private val all = Vector.newBuilder[String]
  private var next = 0
  private def id(name: String): Int = { all += name; next += 1; next - 1 }

  val OpPoint = id("op.point")
  val Descent = id("core.descent")
  val LeafPredict = id("core.leaf_predict")
  val PointQuery = id("rsmi.pointQuery")
  val OpWindow = id("op.window")
  val WindowRange = id("rsmi.windowRange")
  val WindowQuery = id("rsmi.windowQuery")
  val OpKnn = id("op.knn")
  val KnnReplay = id("expandingKnn.knn")
  val KnnRange = id("core.knn_range")
  val KnnQuery = id("rsmi.knnQuery")
  val OpKdb = id("op.kdb_point")
  val KdbQuery = id("kdb.pointQuery")
  val OpScan = id("op.scan")
  val ReadMeta = id("datasource.readMeta")
  val SelectBlocks = id("datasource.selectBlocks")
  val SparkCount = id("spark.count")
  val OpInsert = id("op.insert")
  val Insert = id("rsmi.insert")
  val OpMixLookup = id("op.mix_lookup")
  val Setup = id("setup.build")
  val Write = id("datasource.write")
  val KdbBuild = id("baselines.kdb_build")
  val TrainLeaf = id("build.trainLeaf")
  val Pack = id("build.materializeLeaf")
  val BuildPmf = id("build.pmf")

  val names: Vector[String] = all.result()
}

/** In-memory span recorder: (name, start, end, parent, query id).
  *
  * Durations are aggregated per name for every span; the raw spans
  * are kept up to `cap` and written out once the run has ended, so the
  * timed loops never touch a file.
  */
final class Tracer(cap: Int) {
  private val start = new Array[Long](cap)
  private val end = new Array[Long](cap)
  private val name = new Array[Int](cap)
  private val parent = new Array[Int](cap)
  private val query = new Array[Int](cap)
  private var used = 0
  /** While muted (warm-up passes) nothing is recorded. */
  var muted = false
  private val totalNs = new Array[Long](Span.names.size)
  private val counts = new Array[Long](Span.names.size)

  /** Slot for a span whose children are recorded before it ends
    * (-1 once the raw buffer is full; aggregation still happens).
    */
  def reserve(): Int =
    if (!muted && used < cap) { used += 1; used - 1 } else -1

  def put(slot: Int, nm: Int, par: Int, qid: Int, t0: Long, t1: Long): Unit = if (!muted) {
    totalNs(nm) += t1 - t0
    counts(nm) += 1
    if (slot >= 0) {
      start(slot) = t0; end(slot) = t1; name(slot) = nm
      parent(slot) = par; query(slot) = qid
    }
  }

  def span(nm: Int, par: Int, qid: Int, t0: Long, t1: Long): Int = {
    val s = reserve()
    put(s, nm, par, qid, t0, t1)
    s
  }

  /** Mean duration in ns (0 when the span never occurred). */
  def mean(nm: Int): Double = if (counts(nm) == 0) 0.0 else totalNs(nm).toDouble / counts(nm)

  def spansKept: Int = used

  /** Tab-separated: id, name, start_ns, end_ns, parent_id, query_id. */
  def write(path: String): Unit = {
    val w = new BufferedWriter(new FileWriter(path))
    try {
      w.write("id\tname\tstart_ns\tend_ns\tparent\tquery\n")
      var i = 0
      while (i < used) {
        w.write(s"$i\t${Span.names(name(i))}\t${start(i)}\t${end(i)}\t${parent(i)}\t${query(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}
