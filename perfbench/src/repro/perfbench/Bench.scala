package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Callable, Executors}
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.baselines.KdbTree
import repro.core._
import repro.data.SpatialData
import repro.datasource.RsmiFormat
import repro.spatial._

/** Counters of one kind of operation. Timed operations fill `lat`,
  * `failed` and `rangeNs`; the untimed verification pass (one call per
  * distinct query) fills the rest, so those averages repeat exactly.
  */
final class Tally {
  val lat = new Latencies
  var failed = 0L
  var rangeNs = 0L
  var verified = 0L
  var blocks = 0L
  var recallSum = 0.0
  var levels = 0L
  var predErr = 0L
  var returned = 0L
  var scanned = 0L
  var rounds = 0L
  def ops: Int = lat.count
  def perVerified(x: Double): Double = x / verified
}

/** A metric as printed: value and unit. */
final case class Metric(value: Double, unit: String)

/** One run of one workload: set-up, warm-up, timed rounds, verification.
  *
  * A single closed-loop client thread calls the public entry points of
  * `repro.core`, `repro.datasource` and `repro.baselines`. With a
  * tracer, each timed call is wrapped in spans and the layer below it
  * is replayed through public functions (descent, leaf prediction,
  * window range, kNN rounds, build stages, scan planning), so the
  * per-layer split is measured from the benchmark's own files.
  */
final class Bench(w: Workload, seed: Long, seconds: Int, tr: Tracer, outDir: String) {
  private val seeds = Seeds(seed)
  private val traced = tr != null
  private val K = Sizes.k
  private val cores = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors))
  /** Spark's master for the Spark build: one executor thread per core. */
  val buildMaster = s"local[$cores]"
  /** Spark's master for the scans, in a session of their own. A window
    * count reads one or two blocks, so more executor threads add only
    * hand-offs between threads, and each hand-off waits on the host.
    */
  val scanMaster = "local[1]"

  val endToEnd = mutable.LinkedHashMap.empty[String, Metric]
  val perLayer = mutable.LinkedHashMap.empty[String, Metric]
  val samples = mutable.LinkedHashMap.empty[String, Long]
  val info = mutable.LinkedHashMap.empty[String, Any]
  /** Wall seconds of each stage of the run, for sizing the benchmark. */
  val stageWall = mutable.LinkedHashMap.empty[String, Double]
  /** Each round's percentiles and every scan time in order (ns), kept
    * beside the result for looking into a spread.
    */
  val roundValues = mutable.LinkedHashMap.empty[String, Seq[Double]]
  var attempted = 0L
  var failed = 0L

  private var stageStart = System.nanoTime()
  private var spark: SparkSession = _
  private var rsmi: Rsmi = _
  /** The index of the second-to-last set-up, built from the same input
    * as `rsmi`; the insert mix writes to it, so the read phases always
    * see the index as built.
    */
  private var insertIndex: Rsmi = _
  private var kdb: KdbTree = _
  private val indexDir = Paths.get(outDir, s"index-${w.name}").toString
  private val setupTimes = mutable.ArrayBuffer.empty[Double]
  private val writeTimes = mutable.ArrayBuffer.empty[Double]

  private def stage(name: String): Unit = {
    val now = System.nanoTime()
    stageWall(name) = (now - stageStart) / 1e9
    stageStart = now
  }

  def run(): Unit = {
    try body() finally if (spark != null) spark.stop()
  }

  private def body(): Unit = {
    val (pts, df) =
      if (w.sparkBuild) {
        startSpark(buildMaster)
        val d = SpatialData.generate(spark, w.dist, w.n.toLong, seeds.data).cache()
        (SpatialData.collectPoints(d), d)
      } else (SpatialData.local(w.dist, w.n, seeds.data), null)
    val qs = new QuerySet(pts, seeds.queries, Sizes.timed)
    val warm = new QuerySet(pts, seeds.warmup, Sizes.warmup)
    val truth = new GridTruth(pts)
    val scanTruth = qs.scans.map(truth.count)
    stage("inputs")

    setup(pts, df)
    val buildCounts = buildStructure()
    val leafSets = if (traced) leafPointSets() else Nil
    val indexBytes = rsmi.sizeBytes
    stage("setup")

    val k0 = System.nanoTime()
    kdb = KdbTree.build(pts, w.cfg.B)
    val kdbBuildS = (System.nanoTime() - k0) / 1e9
    if (traced) tr.span(Span.KdbBuild, -1, -1, k0, System.nanoTime())
    val writeS =
      if (w.sparkBuild) median(writeTimes)
      else {
        val w0 = System.nanoTime()
        RsmiFormat.write(rsmi, indexDir)
        val w1 = System.nanoTime()
        if (traced) tr.span(Span.Write, -1, -1, w0, w1)
        (w1 - w0) / 1e9
      }
    if (spark != null) spark.stop()
    startSpark(scanMaster)
    val scanDf = spark.read.format("rsmi").load(indexDir)
    stage("kdb_build_write_spark")

    // One untimed pass per kind of operation over samples drawn with
    // another seed, and an insert mix on a throwaway index. Scans come
    // first: Spark's code shares library methods (Scala collections)
    // with the index, and the index's paths are compiled after Spark
    // has shaped those methods' profiles. Then untimed rounds of the
    // timed loop itself, so the JIT has seen the timed mix of calls.
    mute {
      val sink = new Tally
      forEach(warm.scans.length)(i => scanOp(scanDf, warm.scans(i), i, sink, -1L))
      stage("warmup_scans")
      forEach(warm.points.length)(i => pointOp(warm.points(i), i, sink))
      forEach(warm.points.length)(i => kdbOp(warm.points(i), i, sink))
      forEach(warm.windows.length) { i => windowOp(warm.windows(i), i, sink); knnOp(warm.knn(i), i, sink) }
      val base = SpatialData.local(w.dist, Sizes.insertWarmupBase, seeds.warmup)
      val warmMix = new InsertMix(RsmiBuilder.build(base, w.cfg.copy(N = 1000)), base, seeds.warmup,
        Sizes.insertWarmup, seeds.warmup + 1, Sizes.insertWarmup / (2 * Sizes.warmupRounds))
      // Half the warm-up inserts here, half in the untimed rounds.
      for (_ <- 0 until Sizes.warmupRounds) warmMix.step()
      stage("warmup_pass")
      timedRounds(Sizes.warmupRounds, Seq(sink), Seq(
        Phase(warm.points.length, share = Shares.point)(i => pointOp(warm.points(i), i, sink)),
        Phase(warm.points.length, share = Shares.kdb)(i => kdbOp(warm.points(i), i, sink)),
        Phase(2 * warm.windows.length, share = Shares.windowKnn)(i =>
          if (i % 2 == 0) windowOp(warm.windows(i / 2), i, sink) else knnOp(warm.knn(i / 2), i, sink)),
        Phase(warm.scans.length, count = Sizes.scansPerRound)(i => scanOp(scanDf, warm.scans(i), i, sink, -1L)),
        Phase(1, count = 1)(_ => warmMix.step())))
    }
    stage("warmup_rounds")

    val point = new Tally
    val kdbT = new Tally
    val win = new Tally
    val knn = new Tally
    val scan = new Tally
    val mix = new InsertMix(insertIndex, pts, seeds.data, w.n / 2, seeds.inserts, (w.n / 2 + rounds - 1) / rounds)
    val jvm = new JvmMeter
    jvm.during(timedRounds(rounds, Seq(point, kdbT, win, knn, scan, mix.inserts, mix.lookups), Seq(
      // Lookups of indexed points, and KDB on the same queries.
      Phase(qs.points.length, share = Shares.point)(i => pointOp(qs.points(i), i, point)),
      Phase(qs.points.length, share = Shares.kdb)(i => kdbOp(qs.points(i), i, kdbT)),
      // Windows (Alg 2) and kNN (Alg 3) alternated in one loop.
      Phase(2 * qs.windows.length, share = Shares.windowKnn)(i =>
        if (i % 2 == 0) windowOp(qs.windows(i / 2), i, win) else knnOp(qs.knn(i / 2), i, knn)),
      // Pushed-down `format("rsmi")` window counts.
      Phase(qs.scans.length, count = Sizes.scansPerRound)(i => scanOp(scanDf, qs.scans(i), i, scan, scanTruth(i))),
      // An equal slice of the insert mix per round.
      Phase(1, count = 1)(_ => mix.step()))))
    require(mix.done, "insert mix incomplete")
    stage("timed_rounds")

    // Exact counts and recalls: one untimed call per distinct query.
    mute {
      forEach(qs.points.length)(i => verifyPoint(qs.points(i), point))
      forEach(qs.points.length)(i => verifyKdb(qs.points(i), kdbT))
      forEach(qs.windows.length)(i => verifyWindow(qs.windows(i), truth.windowIds(qs.windows(i)), win))
      forEach(qs.knn.length)(i => verifyKnn(qs.knn(i), truth.knn(qs.knn(i).x, qs.knn(i).y, K), knn))
    }
    stage("verify")

    val tallies = Seq(point, kdbT, win, knn, scan, mix.inserts, mix.lookups)
    attempted = tallies.map(_.ops.toLong).sum
    failed = tallies.map(_.failed).sum

    val us = (ns: Double) => ns / 1e3
    val ms = (ns: Double) => ns / 1e6
    // µs operations: each round's percentile, mean over the rounds.
    // Scans (a few per round) pool their samples.
    val Seq(p50, p99) = point.lat.roundMeans(0.5, 0.99)
    val Seq(w50, w99) = win.lat.roundMeans(0.5, 0.99)
    val Seq(k50, k99) = knn.lat.roundMeans(0.5, 0.99)
    val Seq(i50, i99) = mix.inserts.lat.roundMeans(0.5, 0.99)
    val Seq(kd50) = kdbT.lat.roundMeans(0.5)
    val Seq(s50, s90) = scan.lat.percentiles(0.5, 0.9)
    roundValues ++= Seq(
      "point_p50_ns" -> point.lat.perRound(0.5), "point_p99_ns" -> point.lat.perRound(0.99),
      "window_p50_ns" -> win.lat.perRound(0.5), "window_p99_ns" -> win.lat.perRound(0.99),
      "knn_p50_ns" -> knn.lat.perRound(0.5), "knn_p99_ns" -> knn.lat.perRound(0.99),
      "kdb_point_p50_ns" -> kdbT.lat.perRound(0.5), "insert_p99_ns" -> mix.inserts.lat.perRound(0.99),
      "scan_ns" -> scan.lat.raw)
    endToEnd ++= Seq(
      "setup_s" -> Metric(median(setupTimes), "s"),
      "point_p50_us" -> Metric(us(p50), "us"),
      "point_p99_us" -> Metric(us(p99), "us"),
      "window_p50_us" -> Metric(us(w50), "us"),
      "window_p99_us" -> Metric(us(w99), "us"),
      "window_recall" -> Metric(win.perVerified(win.recallSum), "ratio"),
      "knn_p50_us" -> Metric(us(k50), "us"),
      "knn_p99_us" -> Metric(us(k99), "us"),
      "knn_recall" -> Metric(knn.perVerified(knn.recallSum), "ratio"),
      "insert_p50_us" -> Metric(us(i50), "us"),
      "insert_p99_us" -> Metric(us(i99), "us"),
      "scan_p50_ms" -> Metric(ms(s50), "ms"),
      "scan_p90_ms" -> Metric(ms(s90), "ms"),
      "index_bytes_per_point" -> Metric(indexBytes.toDouble / w.n, "B"),
      "kdb_point_p50_us" -> Metric(us(kd50), "us"))
    samples ++= Seq("rounds" -> rounds.toLong, "setup" -> setupTimes.size.toLong,
      "point" -> point.ops.toLong, "kdb_point" -> kdbT.ops.toLong, "window" -> win.ops.toLong,
      "knn" -> knn.ops.toLong, "scan" -> scan.ops.toLong, "insert" -> mix.inserts.ops.toLong,
      "mix_lookup" -> mix.lookups.ops.toLong)
    info ++= Seq("gc_ms" -> jvm.gcMs, "gc_count" -> jvm.gcCount,
      "point_mean_us" -> us(point.lat.mean), "kdb_point_mean_us" -> us(kdbT.lat.mean),
      "setup_runs_s" -> setupTimes.toSeq)

    if (traced) {
      perLayer ++= layerMetrics(point, win, knn, mix, leafSets, writeS) ++ buildCounts ++
        datasourceMetrics(qs, scanTruth, writeS) ++ Seq(
        "baselines.kdb_build_s" -> Metric(kdbBuildS, "s"),
        "baselines.kdb_blocks" -> Metric(kdbT.perVerified(kdbT.blocks), "blocks"),
        "jvm.gc_ms" -> Metric(jvm.gcMs, "ms"),
        "jvm.gc_count" -> Metric(jvm.gcCount.toDouble, "count"),
        "jvm.alloc_bytes_per_op" -> Metric(jvm.allocBytes.toDouble / attempted, "B/op"))
      stage("layer_replays")
    }
  }

  // ------------------------------------------------------------- set-up

  /** Builds the index `setupReps` times; `setup_s` is the median. An
    * untimed build over a smaller sample drawn with the warm-up seed
    * comes first. Data generation and session start are outside the
    * timed interval.
    */
  private def setup(pts: Array[Point], df: DataFrame): Unit = {
    val warmN = math.max(w.n / 5, 2 * w.cfg.N + 1)
    if (w.sparkBuild) RsmiSpark.build(SpatialData.generate(spark, w.dist, warmN, seeds.warmup), w.cfg)
    else RsmiBuilder.build(SpatialData.local(w.dist, warmN, seeds.warmup), w.cfg)
    for (_ <- 0 until Sizes.setupReps) {
      insertIndex = rsmi
      rsmi = null
      System.gc()
      val t0 = System.nanoTime()
      rsmi = if (w.sparkBuild) RsmiSpark.build(df, w.cfg) else RsmiBuilder.build(pts, w.cfg)
      val t1 = System.nanoTime()
      if (w.sparkBuild) {
        RsmiFormat.write(rsmi, indexDir)
        writeTimes += (System.nanoTime() - t1) / 1e9
      }
      val t2 = System.nanoTime()
      setupTimes += (t2 - t0) / 1e9
      if (traced) {
        val s = tr.span(Span.Setup, -1, -1, t0, t2)
        if (w.sparkBuild) tr.span(Span.Write, s, -1, t1, t2)
      }
    }
  }

  private def buildStructure(): Seq[(String, Metric)] = {
    var leaves = 0
    var fallbacks = 0
    def walk(nd: RsmiNode): Unit = nd match {
      case _: LeafNode => leaves += 1
      case in: InternalNode =>
        if (in.model.isInstanceOf[GridRegressor]) fallbacks += 1
        in.children.foreach(c => if (c != null) walk(c))
    }
    walk(rsmi.root)
    val (errL, errA) = rsmi.maxErrBounds
    Seq(
      "core.build.models" -> Metric(rsmi.numModels, "count"),
      "core.build.leaves" -> Metric(leaves, "count"),
      "core.build.height" -> Metric(rsmi.height, "count"),
      "core.build.avg_depth" -> Metric(rsmi.avgDepth, "count"),
      "core.build.grid_fallbacks" -> Metric(fallbacks, "count"),
      "core.build.err_l_max" -> Metric(errL, "blocks"),
      "core.build.err_a_max" -> Metric(errA, "blocks"))
  }

  /** Each leaf's points (from its packed blocks) with the seed the
    * builders train it with: the parent's seed * 31 + cell + 1.
    */
  private def leafPointSets(): List[(Array[Point], Long)] = {
    val out = mutable.ListBuffer.empty[(Array[Point], Long)]
    def walk(nd: RsmiNode, s: Long): Unit = nd match {
      case lf: LeafNode =>
        val b = Array.newBuilder[Point]
        for (g <- lf.firstBlk to lf.lastBlk) b ++= rsmi.store.peek(g).points
        out += ((b.result(), s))
      case in: InternalNode =>
        for (c <- in.children.indices if in.children(c) != null) walk(in.children(c), s * 31 + c + 1)
    }
    walk(rsmi.root, w.cfg.seed)
    out.toList
  }

  private def startSpark(master: String): Unit = {
    val dir = (name: String) => Paths.get(outDir, name).toAbsolutePath.toString
    spark = SparkSession.builder
      .master(master)
      .appName("rsmi-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", dir("spark-local"))
      .config("spark.sql.warehouse.dir", dir("spark-warehouse"))
      .config("spark.hadoop.hadoop.tmp.dir", dir("hadoop-tmp"))
      .config("spark.sql.shuffle.partitions", if (master == scanMaster) "1" else cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
  }

  // -------------------------------------------------------------- loops

  private def median(xs: collection.Seq[Double]): Double = xs.sorted.apply(xs.size / 2)

  /** Runs `body` with span recording off (warm-up, verification). */
  private def mute(body: => Unit): Unit = {
    if (traced) tr.muted = true
    try body finally if (traced) tr.muted = false
  }

  private def forEach(m: Int)(op: Int => Unit): Unit = {
    var i = 0
    while (i < m) { op(i); i += 1 }
  }

  /** A phase of a round: its operation over a query set of `m`
    * entries, taken in turn, either for `share` of a half-second round
    * or for exactly `count` operations.
    */
  private final case class Phase(m: Int, share: Double = 0.0, count: Int = 0)(val op: Int => Unit) {
    var next = 0
  }

  /** Rounds of the timed loop, about half a second each. */
  private val rounds = 2 * seconds

  /** `count` rounds; in each, every phase runs its share of the round
    * or its fixed number of operations, so a slow stretch of the
    * machine falls on every metric alike.
    */
  private def timedRounds(count: Int, tallies: Seq[Tally], phases: Seq[Phase]): Unit = {
    for (_ <- 0 until count) {
      for (ph <- phases) {
        if (ph.count > 0) {
          var c = 0
          while (c < ph.count) { ph.op(ph.next % ph.m); ph.next += 1; c += 1 }
        } else {
          val budgetNs = (ph.share * 0.5e9).toLong
          val t0 = System.nanoTime()
          do { ph.op(ph.next % ph.m); ph.next += 1 } while (System.nanoTime() - t0 < budgetNs)
        }
      }
      tallies.foreach(_.lat.endRound())
    }
  }

  // --------------------------------------------------- timed operations

  private def hit(r: Option[Point], q: Point): Boolean =
    r.isDefined && r.get.x == q.x && r.get.y == q.y

  private def pointOp(q: Point, qid: Int, t: Tally): Unit = {
    if (!traced) {
      val t0 = System.nanoTime()
      val r = rsmi.pointQuery(q.x, q.y)
      t.lat.add(System.nanoTime() - t0)
      if (!hit(r, q)) t.failed += 1
    } else {
      val root = tr.reserve()
      val t0 = System.nanoTime()
      val leaf = descend(q)
      val t1 = System.nanoTime()
      leaf.predictLocal(q.x, q.y)
      val t2 = System.nanoTime()
      val r = rsmi.pointQuery(q.x, q.y)
      val t3 = System.nanoTime()
      t.lat.add(t3 - t2)
      if (!hit(r, q)) t.failed += 1
      tr.span(Span.Descent, root, qid, t0, t1)
      tr.span(Span.LeafPredict, root, qid, t1, t2)
      tr.span(Span.PointQuery, root, qid, t2, t3)
      tr.put(root, Span.OpPoint, -1, qid, t0, t3)
    }
  }

  /** Internal models visited by the last `descend`. */
  private var descentLevels = 0

  /** Alg 1 lines 1-3 replayed level by level through
    * `InternalNode.routeCell`; returns the leaf.
    */
  private def descend(q: Point): LeafNode = {
    var nd = rsmi.root
    descentLevels = 0
    while (nd.isInstanceOf[InternalNode]) {
      val in = nd.asInstanceOf[InternalNode]
      nd = in.children(in.routeCell(q.x, q.y))
      descentLevels += 1
    }
    nd.asInstanceOf[LeafNode]
  }

  private def kdbOp(q: Point, qid: Int, t: Tally): Unit = {
    val t0 = System.nanoTime()
    val r = kdb.pointQuery(q.x, q.y)
    val t1 = System.nanoTime()
    t.lat.add(t1 - t0)
    if (!hit(r, q)) t.failed += 1
    if (traced) tr.span(Span.KdbQuery, tr.span(Span.OpKdb, -1, qid, t0, t1), qid, t0, t1)
  }

  private def windowOp(r: Rect, qid: Int, t: Tally): Unit = {
    var res: Seq[Point] = null
    if (!traced) {
      val t0 = System.nanoTime()
      res = rsmi.windowQuery(r)
      t.lat.add(System.nanoTime() - t0)
    } else {
      val root = tr.reserve()
      val t0 = System.nanoTime()
      rsmi.windowRange(r)
      val t1 = System.nanoTime()
      res = rsmi.windowQuery(r)
      val t2 = System.nanoTime()
      t.lat.add(t2 - t1)
      tr.span(Span.WindowRange, root, qid, t0, t1)
      tr.span(Span.WindowQuery, root, qid, t1, t2)
      tr.put(root, Span.OpWindow, -1, qid, t0, t2)
    }
    if (res.exists(p => !r.contains(p))) t.failed += 1
  }

  private def knnOp(q: Point, qid: Int, t: Tally): Unit = {
    var res: Seq[Point] = null
    if (!traced) {
      val t0 = System.nanoTime()
      res = rsmi.knnQuery(q.x, q.y, K)
      t.lat.add(System.nanoTime() - t0)
    } else {
      // Alg 3 replayed through ExpandingKnn with a timed windowRange.
      val root = tr.reserve()
      val t0 = System.nanoTime()
      val inner = tr.reserve()
      val replay = ExpandingKnn.knn(rsmi.store, rsmi.pmfX, rsmi.pmfY, rsmi.cardinality,
        rsmi.cfg.delta, q.x, q.y, K) { r =>
        val s0 = System.nanoTime()
        val out = rsmi.windowRange(r)
        val s1 = System.nanoTime()
        t.rangeNs += s1 - s0
        tr.span(Span.KnnRange, inner, qid, s0, s1)
        out
      }
      val t1 = System.nanoTime()
      tr.put(inner, Span.KnnReplay, root, qid, t0, t1)
      res = rsmi.knnQuery(q.x, q.y, K)
      val t2 = System.nanoTime()
      t.lat.add(t2 - t1)
      tr.span(Span.KnnQuery, root, qid, t1, t2)
      tr.put(root, Span.OpKnn, -1, qid, t0, t2)
      if (replay.map(_.id) != res.map(_.id)) t.failed += 1
    }
    if (res.size < K) t.failed += 1
  }

  private def scanOp(df: DataFrame, r: Rect, qid: Int, t: Tally, truth: Long): Unit = {
    val root = if (traced) tr.reserve() else -1
    val t0 = System.nanoTime()
    if (traced) {
      // The planning a scan repeats: read the metadata, select blocks.
      val meta = RsmiFormat.readMeta(indexDir)
      val t1 = System.nanoTime()
      RsmiFormat.selectBlocks(meta, r)
      tr.span(Span.ReadMeta, root, qid, t0, t1)
      tr.span(Span.SelectBlocks, root, qid, t1, System.nanoTime())
    }
    val s0 = System.nanoTime()
    val c = df.filter(col("x") >= r.xlo && col("x") <= r.xhi &&
      col("y") >= r.ylo && col("y") <= r.yhi).count()
    val s1 = System.nanoTime()
    t.lat.add(s1 - s0)
    if (truth >= 0 && c != truth) t.failed += 1
    if (traced) {
      tr.span(Span.SparkCount, root, qid, s0, s1)
      tr.put(root, Span.OpScan, -1, qid, t0, s1)
    }
  }

  /** Inserts into `idx` of the `count` points that follow the first
    * `base.length` in the workload's generator stream with `dataSeed`:
    * new points from the data's own distribution (another generator
    * seed would move OSM-like's clusters). Their order, and after each
    * insert a lookup of a base point or an already-inserted one (even
    * odds), are drawn with `s`; `step()` runs the next `chunk` of them.
    */
  private final class InsertMix(idx: Rsmi, base: Array[Point], dataSeed: Long, count: Int, s: Long,
                                chunk: Int) {
    private val rnd = new java.util.Random(s)
    private val ins = {
      val ps = SpatialData.local(w.dist, base.length + count, dataSeed).drop(base.length)
      for (i <- ps.length - 1 to 1 by -1) { val k = rnd.nextInt(i + 1); val t = ps(i); ps(i) = ps(k); ps(k) = t }
      ps
    }
    private var j = 0
    val inserts = new Tally
    val lookups = new Tally

    def done: Boolean = j == ins.length

    def step(): Unit = {
      val end = math.min(ins.length, j + chunk)
      while (j < end) {
        insertOp(ins(j), j)
        lookupOp(if (rnd.nextBoolean()) base(rnd.nextInt(base.length)) else ins(rnd.nextInt(j + 1)), j)
        j += 1
      }
    }

    private def insertOp(p: Point, qid: Int): Unit = {
      val t0 = System.nanoTime()
      idx.insert(p)
      val t1 = System.nanoTime()
      inserts.lat.add(t1 - t0)
      if (traced) tr.span(Span.Insert, tr.span(Span.OpInsert, -1, qid, t0, t1), qid, t0, t1)
    }

    private def lookupOp(q: Point, qid: Int): Unit = {
      val a0 = idx.blockAccesses
      val t0 = System.nanoTime()
      val r = idx.pointQuery(q.x, q.y)
      val t1 = System.nanoTime()
      lookups.lat.add(t1 - t0)
      lookups.blocks += idx.blockAccesses - a0
      lookups.verified += 1
      if (!hit(r, q)) lookups.failed += 1
      if (traced) tr.span(Span.PointQuery, tr.span(Span.OpMixLookup, -1, qid, t0, t1), qid, t0, t1)
    }
  }

  // ------------------------------------------------------- verification

  private def verifyPoint(q: Point, t: Tally): Unit = {
    val a0 = rsmi.blockAccesses
    rsmi.pointQuery(q.x, q.y)
    t.blocks += rsmi.blockAccesses - a0
    val leaf = descend(q)
    t.levels += descentLevels
    t.predErr += math.max(0, foundDistance(leaf, leaf.firstBlk + leaf.predictLocal(q.x, q.y), q.x, q.y))
    t.verified += 1
  }

  /** Distance in blocks between the predicted block and the block
    * group holding (x, y), in `Rsmi.pointQuery`'s search order
    * (uncounted reads).
    */
  private def foundDistance(leaf: LeafNode, gpred: Int, x: Double, y: Double): Int = {
    val lo = math.max(leaf.firstBlk, gpred - leaf.errL)
    val hi = math.min(leaf.lastBlk, gpred + leaf.errA)
    val maxD = math.max(gpred - lo, hi - gpred)
    var d = 0
    while (d <= maxD) {
      if (gpred + d <= hi && inGroup(gpred + d, x, y)) return d
      if (d > 0 && gpred - d >= lo && inGroup(gpred - d, x, y)) return d
      d += 1
    }
    -1
  }

  private def inGroup(g: Int, x: Double, y: Double): Boolean = {
    val ord = rsmi.store.peek(g).ord
    var cur = g
    while (cur >= 0) {
      val b = rsmi.store.peek(cur)
      if (cur != g && !(b.inserted && b.ord == ord)) return false
      if (b.indexOf(x, y) >= 0) return true
      cur = b.next
    }
    false
  }

  private def verifyKdb(q: Point, t: Tally): Unit = {
    val a0 = kdb.blockAccesses
    kdb.pointQuery(q.x, q.y)
    t.blocks += kdb.blockAccesses - a0
    t.verified += 1
  }

  private def verifyWindow(r: Rect, truth: Array[Long], t: Tally): Unit = {
    val a0 = rsmi.blockAccesses
    val res = rsmi.windowQuery(r)
    t.blocks += rsmi.blockAccesses - a0
    val found = res.count(p => java.util.Arrays.binarySearch(truth, p.id) >= 0)
    t.recallSum += (if (truth.isEmpty) 1.0 else found.toDouble / truth.length)
    val (b, e) = rsmi.windowRange(r)
    t.scanned += scannedPoints(b, e)
    t.returned += res.size
    t.verified += 1
  }

  /** Points held by the blocks `BlockStore.scanRange(b, e)` visits. */
  private def scannedPoints(b: Int, e: Int): Long = {
    val st = rsmi.store
    val lo = math.max(0, math.min(b, st.originalCount - 1))
    val hi = math.max(lo, math.min(e, st.originalCount - 1))
    var cur = lo
    var sum = 0L
    while (cur >= 0) {
      val blk = st.peek(cur)
      if (blk.ord > hi) return sum
      sum += blk.size
      cur = blk.next
    }
    sum
  }

  /** Tie-tolerant recall as in `Experiments.measureKnnQueries`. */
  private def verifyKnn(q: Point, truth: (Set[Long], Double), t: Tally): Unit = {
    val a0 = rsmi.blockAccesses
    val res = rsmi.knnQuery(q.x, q.y, K)
    t.blocks += rsmi.blockAccesses - a0
    val (ids, kth2) = truth
    val matched = res.count(p => ids.contains(p.id) || p.dist2(q.x, q.y) <= kth2)
    t.recallSum += math.min(1.0, matched.toDouble / ids.size)
    ExpandingKnn.knn(rsmi.store, rsmi.pmfX, rsmi.pmfY, rsmi.cardinality, rsmi.cfg.delta,
      q.x, q.y, K) { r => t.rounds += 1; rsmi.windowRange(r) }
    t.verified += 1
  }

  // ---------------------------------------------------------- per layer

  private def layerMetrics(point: Tally, win: Tally, knn: Tally, mix: InsertMix,
                           leafSets: List[(Array[Point], Long)],
                           writeS: Double): Seq[(String, Metric)] = {
    val descent = tr.mean(Span.Descent)
    val leafPred = tr.mean(Span.LeafPredict)
    val wRange = tr.mean(Span.WindowRange)
    val kRange = knn.rangeNs.toDouble / knn.ops

    // Overflow blocks of the insert index, and the longest run of them
    // chained behind one original block.
    val st = insertIndex.store
    var chainMax = 0
    for (g <- 0 until st.originalCount) {
      var len = 0
      var cur = st.peek(g).next
      while (cur >= 0 && st.peek(cur).inserted && st.peek(cur).ord == g) { len += 1; cur = st.peek(cur).next }
      chainMax = math.max(chainMax, len)
    }

    // Build stages replayed through public functions on the leaf sets.
    // Leaves train on as many threads as the build trained them on:
    // Spark's `local[cores]` executors, or the local build's one thread.
    val pool = Executors.newFixedThreadPool(if (w.sparkBuild) cores else 1)
    val a = System.nanoTime()
    val trained = try {
      leafSets.map { case (lpts, s) =>
        pool.submit(new Callable[RsmiBuilder.LeafResult] {
          def call(): RsmiBuilder.LeafResult = RsmiBuilder.trainLeaf(lpts, w.cfg, s)
        })
      }.map(_.get)
    } finally pool.shutdown()
    val b = System.nanoTime()
    tr.span(Span.TrainLeaf, -1, -1, a, b)
    val trainNs = b - a
    var packNs = 0L
    val scratch = new BlockStore(w.cfg.B)
    for (lr <- trained) {
      val c = System.nanoTime()
      RsmiBuilder.materializeLeaf(lr, scratch, w.cfg)
      val d = System.nanoTime()
      packNs += d - c
      tr.span(Span.Pack, -1, -1, c, d)
    }
    val p0 = System.nanoTime()
    Pmf.buildXY(leafSets.iterator.flatMap(_._1).toArray, w.cfg.gamma)
    val p1 = System.nanoTime()
    tr.span(Span.BuildPmf, -1, -1, p0, p1)
    val stagesS = (trainNs + packNs + (p1 - p0)) / 1e9 + (if (w.sparkBuild) writeS else 0.0)

    Seq(
      "core.descent_ns" -> Metric(descent, "ns"),
      "core.levels" -> Metric(point.perVerified(point.levels), "count"),
      "core.leaf_predict_ns" -> Metric(leafPred, "ns"),
      "spatial.point_scan_ns" -> Metric(point.lat.mean - descent - leafPred, "ns"),
      "spatial.point_blocks" -> Metric(point.perVerified(point.blocks), "blocks"),
      "core.point_pred_err_blocks" -> Metric(point.perVerified(point.predErr), "blocks"),
      "core.window_range_ns" -> Metric(wRange, "ns"),
      "spatial.window_scan_ns" -> Metric(win.lat.mean - wRange, "ns"),
      "spatial.window_blocks" -> Metric(win.perVerified(win.blocks), "blocks"),
      "core.window_useful_ratio" -> Metric(win.returned.toDouble / win.scanned, "ratio"),
      "core.knn_rounds" -> Metric(knn.perVerified(knn.rounds), "count"),
      "core.knn_range_ns" -> Metric(kRange, "ns"),
      "spatial.knn_scan_ns" -> Metric(tr.mean(Span.KnnReplay) - kRange, "ns"),
      "spatial.knn_blocks" -> Metric(knn.perVerified(knn.blocks), "blocks"),
      "spatial.overflow_blocks" -> Metric(st.numBlocks - st.originalCount, "count"),
      "spatial.overflow_chain_max" -> Metric(chainMax, "count"),
      "spatial.mix_lookup_blocks" -> Metric(mix.lookups.perVerified(mix.lookups.blocks), "blocks"),
      "core.build.leaf_train_s" -> Metric(trainNs / 1e9, "s"),
      "core.build.pack_s" -> Metric(packNs / 1e9, "s"),
      "core.build.pmf_s" -> Metric((p1 - p0) / 1e9, "s"),
      "core.build.internal_s" -> Metric(endToEnd("setup_s").value - stagesS, "s"))
  }

  /** Scan planning over the distinct scan windows (exact ratios) and
    * the timed planning spans.
    */
  private def datasourceMetrics(qs: QuerySet, scanTruth: Array[Long],
                                writeS: Double): Seq[(String, Metric)] = {
    val meta = RsmiFormat.readMeta(indexDir)
    val totalBlocks = RsmiFormat.allBlocks(meta).size.toLong
    var selected = 0L
    var rowsRead = 0L
    for (r <- qs.scans) {
      val sel = RsmiFormat.selectBlocks(meta, r)
      selected += sel.size
      rowsRead += sel.iterator.map(_.count.toLong).sum
    }
    Seq(
      "datasource.read_meta_ms" -> Metric(tr.mean(Span.ReadMeta) / 1e6, "ms"),
      "datasource.select_blocks_ms" -> Metric(tr.mean(Span.SelectBlocks) / 1e6, "ms"),
      "datasource.prune_ratio" -> Metric(selected.toDouble / (totalBlocks * qs.scans.length), "ratio"),
      "datasource.rows_read_per_row" -> Metric(rowsRead.toDouble / math.max(1L, scanTruth.sum), "ratio"),
      "datasource.meta_bytes" -> Metric(Files.size(Paths.get(indexDir, "meta.ser")).toDouble, "B"),
      "datasource.write_s" -> Metric(writeS, "s"))
  }
}

/** GC time, GC count and client-thread allocation over the timed
  * rounds.
  */
final class JvmMeter {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  var gcMs = 0.0
  var gcCount = 0L
  var allocBytes = 0L

  def during[A](body: => A): A = {
    val c0 = gcs.map(_.getCollectionCount).sum
    val m0 = gcs.map(_.getCollectionTime).sum
    val a0 = threads.getCurrentThreadAllocatedBytes
    val out = body
    allocBytes += threads.getCurrentThreadAllocatedBytes - a0
    gcCount += gcs.map(_.getCollectionCount).sum - c0
    gcMs += gcs.map(_.getCollectionTime).sum - m0
    out
  }
}
