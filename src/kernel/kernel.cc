#include "src/kernel/kernel.h"

namespace mks {

Kernel::Kernel(const KernelConfig& config)
    : config_(config),
      ctx_(std::make_unique<KernelContext>(config.memory_frames, config.features,
                                           config.structured_factor, config.secret,
                                           config.cpu_count, config.connect_cost)) {
  // Before any manager interns events or records: size the per-CPU rings and
  // latch the knob.  With trace.enabled false the tracer stays inert and no
  // instrumented path diverges from an untraced build.
  ctx_->trace.Enable(config.cpu_count, config.trace);
  // Same staging for the profiler: lanes sized before the first charge, so
  // every accrual window from boot onward is attributable.
  ctx_->prof.Enable(config.cpu_count, config.profile);
  core_segs_ = std::make_unique<CoreSegmentManager>(ctx_.get());
  vpm_ = std::make_unique<VirtualProcessorManager>(ctx_.get(), core_segs_.get());
  vpm_->set_connect_cost(config.connect_cost);
  quota_ = std::make_unique<QuotaCellManager>(ctx_.get(), core_segs_.get());
  pfm_ = std::make_unique<PageFrameManager>(ctx_.get(), core_segs_.get(), quota_.get(),
                                            vpm_.get());
  segs_ = std::make_unique<SegmentManager>(ctx_.get(), core_segs_.get(), quota_.get(),
                                           pfm_.get());
  spaces_ = std::make_unique<AddressSpaceManager>(ctx_.get(), core_segs_.get(), segs_.get());
  ksm_ = std::make_unique<KnownSegmentManager>(ctx_.get(), segs_.get(), spaces_.get());
  dirs_ = std::make_unique<DirectoryManager>(ctx_.get(), quota_.get(), segs_.get(),
                                             spaces_.get());
  gates_ = std::make_unique<KernelGates>(ctx_.get(), vpm_.get(), pfm_.get(), segs_.get(),
                                         spaces_.get(), ksm_.get(), dirs_.get());
  uproc_ = std::make_unique<UserProcessManager>(ctx_.get(), core_segs_.get(), vpm_.get(),
                                                pfm_.get(), segs_.get(), ksm_.get(),
                                                gates_.get());
  uproc_->ConfigureDispatch(
      {config.sharded_runqueues, config.steal, config.connect_cost, config.lock_policy});
  uproc_->set_slab_processes(config.slab_processes);
  // The read-mostly naming locks: one per manager, same policy and pricing.
  // Cross-CPU traffic (token revocation, epoch publish) is priced at
  // connect_cost, the interconnect's line-transfer figure everywhere else.
  const SharedLockConfig read_mostly{config.read_policy, config.connect_cost,
                                     config.epoch_grace_cost, config.cpu_count};
  dirs_->ConfigureReadMostly(read_mostly);
  ksm_->ConfigureReadMostly(read_mostly);
}

Kernel::~Kernel() = default;

Status Kernel::Boot() {
  if (booted_) {
    return Status(Code::kFailedPrecondition, "already booted");
  }
  // Stage 1: the fixed pool of virtual processors, states wired in core.
  MKS_RETURN_IF_ERROR(vpm_->Init(config_.vp_count));
  // Stage 2: mount the packs.
  for (uint16_t p = 0; p < config_.pack_count; ++p) {
    ctx_->volumes.AddPack(config_.records_per_pack, config_.vtoc_slots_per_pack);
  }
  // Stage 3: resource-control and paging substrate.
  MKS_RETURN_IF_ERROR(quota_->Init(config_.quota_cell_slots));
  MKS_RETURN_IF_ERROR(segs_->Init(config_.ast_slots));
  MKS_RETURN_IF_ERROR(spaces_->Init(config_.user_sdw_count));
  // Stage 4: the user process layer's real-memory queue (a core segment).
  MKS_RETURN_IF_ERROR(uproc_->Init());
  // Stage 5: the paging pool takes every frame left after the core segments;
  // core segment allocation is now frozen.
  MKS_RETURN_IF_ERROR(pfm_->Init());
  core_segs_->Seal();
  pfm_->set_async(config_.async_paging);
  pfm_->set_retain_zero_records(config_.close_zero_page_channel);
  pfm_->set_pipeline(config_.paging_pipeline);
  // Stage 6: permanently bind the kernel daemons to virtual processors, for
  // asynchronous paging or the paging pipeline.  Each daemon's vp waits on a
  // work eventcount that page control advances where the work arises, and
  // a scheduler pass dispatches it only after an advance.  The page-I/O
  // daemon runs in the level-1 window on the bootload CPU: its count
  // advances when posted reads land, and when asynchronous readahead or an
  // unfinished round is left on a pack request queue.  Under synchronous
  // paging every producer drains its own queue (readahead, fault-path
  // laundering, pre-cleaning, the writer, idle rounds), so the daemon never
  // runs.  The page writer, which the pre-cleaner needs, runs as idle-time
  // work on the first CPU to go idle once dispatch is done; its count
  // advances when a frame becomes a cleaning candidate, when a fault takes
  // the free pool below the low watermark, and when the writer has cleaned
  // a full batch.
  if (config_.async_paging || config_.paging_pipeline.enabled) {
    pfm_->CreateDaemonWork();
    MKS_RETURN_IF_ERROR(vpm_->BindKernelTask("page_io_daemon", pfm_->io_work(),
                                             [this] { pfm_->PageIoDaemonStep(); })
                            .status());
    MKS_RETURN_IF_ERROR(vpm_->BindKernelTask("page_writer", pfm_->writer_work(),
                                             [this] { pfm_->PageWriterStep(4); },
                                             KernelTaskClass::kIdleTime)
                            .status());
  }
  // Stage 7: the naming hierarchy.
  MKS_RETURN_IF_ERROR(dirs_->InitRoot(config_.root_label, config_.root_acl, config_.root_quota));
  booted_ = true;
  return Status::Ok();
}

Status Kernel::Shutdown() {
  if (!booted_) {
    return Status(Code::kFailedPrecondition, "not booted");
  }
  // Sever every user binding, then drain the active segment table.  Destroy
  // in ascending pid order; DestroyProcess handles vp release and the state
  // segment's storage.
  for (ProcessId pid : uproc_->LivePids()) {
    MKS_RETURN_IF_ERROR(uproc_->DestroyProcess(pid));
  }
  if (uproc_->process_count() > 0) {
    return Status(Code::kInternal, "process table would not drain");
  }
  // Slab-parked slots still own KSTs, state segments, and VTOC entries;
  // tear them down for real so the on-disk image leaks nothing.
  MKS_RETURN_IF_ERROR(uproc_->DrainSlabs());
  for (uint32_t slot = 0; slot < segs_->ast_slots(); ++slot) {
    if (segs_->Get(slot) != nullptr) {
      MKS_RETURN_IF_ERROR(segs_->Deactivate(slot));
    }
  }
  for (uint32_t cell = 0; cell < config_.quota_cell_slots; ++cell) {
    Status flushed = quota_->FlushCell(QuotaCellId(cell));
    if (!flushed.ok() && flushed.code() != Code::kInvalidArgument) {
      return flushed;
    }
  }
  booted_ = false;
  return Status::Ok();
}

std::vector<std::string> Kernel::AuditIntegrity() {
  std::vector<std::string> findings;
  ctx_->volumes.AuditIntegrity(&findings);
  pfm_->AuditIntegrity(&findings);
  spaces_->AuditIntegrity(&findings);
  ctx_->cpus.AuditAssociative(&findings);
  dirs_->AuditQuotaIntegrity(&findings);
  // Lattice conformance (F4): every observed call edge the lattice does not
  // declare.  The lattice is loop-free, so with none the observed graph is too.
  for (const std::string& edge : ctx_->tracker.UndeclaredEdges(DeclaredLattice())) {
    findings.push_back("undeclared call " + edge);
  }
  return findings;
}

DependencyGraph Kernel::DeclaredLattice() {
  using namespace module_names;
  DependencyGraph g;
  // Modules, bottom-up.
  g.AddModule(kCoreSegment);
  g.AddModule(kVproc);
  g.AddModule(kDiskVolume);
  g.AddModule(kQuotaCell);
  g.AddModule(kPageFrame);
  g.AddModule(kSegment);
  g.AddModule(kAddressSpace);
  g.AddModule(kKnownSegment);
  g.AddModule(kDirectory);
  g.AddModule(kUserProcess);
  g.AddModule(kGates);

  // Program and address-space dependencies: every module keeps its code,
  // temporary storage, and (for kernel modules) its address space in core
  // segments.
  for (const char* m : {kVproc, kDiskVolume, kQuotaCell, kPageFrame, kSegment, kAddressSpace,
                        kKnownSegment, kDirectory, kUserProcess, kGates}) {
    g.AddEdge(m, kCoreSegment, DepKind::kProgram);
    g.AddEdge(m, kCoreSegment, DepKind::kAddressSpace);
  }
  // Interpreter dependencies: everything above level 1 executes on a virtual
  // processor.
  for (const char* m : {kDiskVolume, kQuotaCell, kPageFrame, kSegment, kAddressSpace,
                        kKnownSegment, kDirectory, kUserProcess, kGates}) {
    g.AddEdge(m, kVproc, DepKind::kInterpreter);
  }

  // Component and map dependencies of the design.
  g.AddEdge(kQuotaCell, kDiskVolume, DepKind::kComponent);  // cells persist in VTOC entries
  g.AddEdge(kPageFrame, kDiskVolume, DepKind::kComponent);  // pages are disk records
  g.AddEdge(kPageFrame, kQuotaCell, DepKind::kMap);         // storage-use accounting
  g.AddEdge(kSegment, kPageFrame, DepKind::kComponent);     // segments are sets of pages
  g.AddEdge(kSegment, kDiskVolume, DepKind::kMap);          // file maps live on the pack
  g.AddEdge(kSegment, kQuotaCell, DepKind::kMap);           // growth charges the static cell
  g.AddEdge(kAddressSpace, kSegment, DepKind::kComponent);  // SDWs name active segments
  g.AddEdge(kKnownSegment, kSegment, DepKind::kComponent);  // KST entries name segments
  g.AddEdge(kKnownSegment, kAddressSpace, DepKind::kComponent);
  g.AddEdge(kDirectory, kSegment, DepKind::kComponent);  // directories stored in segments
  g.AddEdge(kDirectory, kQuotaCell, DepKind::kMap);      // quota designation
  g.AddEdge(kDirectory, kAddressSpace, DepKind::kComponent);  // severs SDWs before a move
  g.AddEdge(kDirectory, kDiskVolume, DepKind::kMap);          // entry names (pack, vtoc)
  g.AddEdge(kUserProcess, kKnownSegment, DepKind::kComponent);  // process state segments
  g.AddEdge(kUserProcess, kSegment, DepKind::kMap);
  g.AddEdge(kUserProcess, kPageFrame, DepKind::kMap);  // the real-memory queue contract
  g.AddEdge(kUserProcess, kDiskVolume, DepKind::kMap);

  // The gate keeper sits on top of everything.
  for (const char* m : {kDiskVolume, kQuotaCell, kPageFrame, kSegment, kAddressSpace,
                        kKnownSegment, kDirectory, kUserProcess}) {
    g.AddEdge(kGates, m, DepKind::kComponent);
  }
  return g;
}

}  // namespace mks
