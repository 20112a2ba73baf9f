// Checkpointing of distributed arrays (blocks_to_list / list_to_blocks).
//
// "The super instructions blocks_to_list [and] list_to_blocks serialize
// and deserialize distributed arrays. This facility is used to pass data
// between different SIAL programs [and] to provide a rudimentary
// checkpointing facility" (paper §IV-C). Each worker writes the home
// blocks it owns into its own part file; once every part is on disk,
// worker 0 writes a manifest with the part count. Restore reads every
// part and keeps the blocks this worker owns under the *current*
// distribution — so a checkpoint written with one worker count restores
// correctly under another.
//
// Checkpoints survive a crash mid-write. Every file is written to a temp
// file, fdatasync'ed and renamed into place, and the parts of a new
// checkpoint carry the generation after the one the current manifest
// names, so they never overwrite the parts that manifest points at. The
// manifest is written last: until it lands, restore still reads the
// previous checkpoint whole.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "block/block.hpp"
#include "block/block_id.hpp"
#include "sial/program.hpp"

namespace sia::sip::checkpoint {

struct Manifest {
  std::string array_name;
  int parts = 0;
  std::int64_t total_blocks = 0;
  std::int64_t generation = 0;  // names the part files; set on write
};

// Replaces anything outside [A-Za-z0-9_-] so user keys are safe as file
// name fragments.
std::string sanitize_key(const std::string& key);

// Commits the next generation: writes the manifest for the parts that
// write_part just wrote, then removes the previous generation's parts.
void write_manifest(const std::string& dir, const std::string& key,
                    const Manifest& manifest);
Manifest read_manifest(const std::string& dir, const std::string& key);

// Writes the blocks of `array_id` present in `home` to part file `part` of
// the next generation.
void write_part(
    const std::string& dir, const std::string& key, int part,
    const sial::ResolvedProgram& program, int array_id,
    const std::unordered_map<BlockId, BlockPtr, BlockIdHash>& home);

// Streams every block of part `part` of the checkpoint `manifest` names;
// the callback receives the linear block number and the payload.
void read_part(const std::string& dir, const std::string& key,
               const Manifest& manifest, int part,
               const std::function<void(std::int64_t,
                                        const std::vector<double>&)>& fn);

}  // namespace sia::sip::checkpoint
